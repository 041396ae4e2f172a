"""End-to-end trap-driven benchmark: pinned workloads, per-layer attribution.

``python3 benchmarks/e2e/run.py --workload <name>`` (or ``python -m
benchmarks.e2e``) times whole trap-driven trials and farm batches from
the outside.  The untraced run gives the end-to-end metrics; a separate
``--trace 1`` run wraps each layer's public calls at class level and
attributes wall time to them.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: the checkout this benchmark lives in (``benchmarks/e2e/`` -> root)
REPO_ROOT = Path(__file__).resolve().parents[2]

#: the program under test is imported from the checkout's own sources
SRC_DIR = REPO_ROOT / "src"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))
