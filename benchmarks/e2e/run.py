"""Benchmark entry point: ``python3 benchmarks/e2e/run.py --workload <name>``.

Runs from the root of a checkout and imports the program from that
checkout's ``src/``.  A directory without those sources is refused.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    # the script's own directory would shadow modules by bare name
    sys.path[0] = str(ROOT)
    from benchmarks.e2e.cli import main

    raise SystemExit(main())
