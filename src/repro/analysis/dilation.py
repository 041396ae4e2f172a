"""Correcting measurements for time-dilation bias (future work, realized).

Section 4.2: "We are collecting time dilation curves for a larger set
of workloads to determine if their shape and magnitude are the same as
in Figure 4.  If so, it should be possible to adjust simulation results
to factor away this form of systematic error."

This module does that adjustment.  A dilation curve — (slowdown,
measured misses) points from runs at different sampling degrees — is
fit with the saturating-error form the paper's Figure 4 exhibits::

    misses(s) = m0 * (1 + e_max * (1 - exp(-s / s0)))

where ``m0`` is the undilated truth, ``e_max`` the saturation error,
and ``s0`` the slowdown scale of the initial rise.  Fitting is a
coarse-to-fine grid search (no scipy dependency needed), and
:func:`correct` then maps any measurement back to its zero-dilation
estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ConfigError


@dataclass(frozen=True)
class DilationCurve:
    """A fitted dilation-error model."""

    m0: float
    e_max: float
    s0: float
    residual: float

    def error_fraction(self, slowdown: float) -> float:
        """The systematic error at a given dilation, as a fraction."""
        if slowdown <= 0:
            return 0.0
        return self.e_max * (1.0 - math.exp(-slowdown / self.s0))


def fit_dilation_curve(
    points: Sequence[tuple[float, float]],
    e_max_grid: Sequence[float] = tuple(i / 100 for i in range(0, 61, 2)),
    s0_grid: Sequence[float] = (0.5, 1, 2, 3, 4, 6, 8, 12, 16, 24),
) -> DilationCurve:
    """Least-squares fit of the saturating form over a parameter grid.

    ``points`` are (slowdown, measured_misses) pairs, at least three of
    them spanning different dilations.
    """
    if len(points) < 3:
        raise ConfigError(
            f"need at least 3 (slowdown, misses) points, got {len(points)}"
        )
    best: DilationCurve | None = None
    for e_max in e_max_grid:
        for s0 in s0_grid:
            # with (e_max, s0) fixed the optimal m0 is a linear fit
            weights = [
                1.0 + e_max * (1.0 - math.exp(-s / s0)) for s, _ in points
            ]
            numerator = sum(w * m for w, (_, m) in zip(weights, points))
            denominator = sum(w * w for w in weights)
            m0 = numerator / denominator
            residual = sum(
                (m - m0 * w) ** 2 for w, (_, m) in zip(weights, points)
            )
            if best is None or residual < best.residual:
                best = DilationCurve(
                    m0=m0, e_max=e_max, s0=s0, residual=residual
                )
    assert best is not None
    return best


def correct(
    measured_misses: float, slowdown: float, curve: DilationCurve
) -> float:
    """Undilated miss estimate for one measurement.

    Divides out the fitted systematic error; measurements taken at
    different dilations then agree, which is the test of the method.
    """
    return measured_misses / (1.0 + curve.error_fraction(slowdown))
