"""Per-region cubic completion-flow models and their critical accumulations.

The completion flow of a region is fitted as a third-order polynomial of the
accumulation with no intercept, so the curve passes through the origin.  The
critical accumulation maximizes the fitted cubic over the observed range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import yaml

from .netmodel import MfdParams, ScenarioError, mfd_from_dict, mfd_to_dict, read_yaml


class MfdFitError(ValueError):
    """Raised when a calibration cannot sample, or its samples cannot support,
    a cubic fit."""


@dataclass(frozen=True)
class MfdSample:
    region: str
    accumulation_veh: float
    completion_veh_s: float


class MfdModel:
    """Fitted cubic completion-flow curves, one per region."""

    def __init__(self, params: dict[str, MfdParams]):
        self.params = dict(sorted(params.items()))

    def regions(self) -> tuple[str, ...]:
        return tuple(self.params)

    def critical(self, region: str) -> float:
        return self.params[region].n_crit

    def evaluate(self, region: str, n: float) -> float:
        """Completion flow (veh/s) at accumulation ``n``, clamped at zero."""
        if region not in self.params:
            raise KeyError(f"no MFD fitted for region '{region}'")
        p = self.params[region]
        value = ((p.b3 * n + p.b2) * n + p.b1) * n
        return max(0.0, value)

    def to_dict(self) -> dict:
        return mfd_to_dict(self.params)


def _cubic(b1: float, b2: float, b3: float, n) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    return ((b3 * n + b2) * n + b1) * n


def critical_accumulation(
    b1: float, b2: float, b3: float, n_max: float | None = None
) -> float:
    """Argmax of the no-intercept cubic on [0, n_max].

    The maximum of a cubic on [0, n_max] lies at a root of its derivative
    quadratic (closed form) or at an end of the range, and the cubic is 0 at
    n = 0, so the candidates are the interior roots and n_max.
    """
    candidates: list[float] = []
    # derivative: 3*b3*n^2 + 2*b2*n + b1
    a, b, c = 3.0 * b3, 2.0 * b2, b1
    if abs(a) > 0.0:
        disc = b * b - 4.0 * a * c
        if disc >= 0.0:
            root = math.sqrt(disc)
            candidates += [(-b - root) / (2.0 * a), (-b + root) / (2.0 * a)]
    elif abs(b) > 0.0:
        candidates.append(-c / b)

    if n_max is None:
        interior = [
            n for n in candidates if n > 0.0 and (6.0 * b3 * n + 2.0 * b2) < 0.0
        ]
        if not interior:
            raise MfdFitError(
                "cubic has no interior maximum; provide an explicit range"
            )
        n_crit = min(interior)
    else:
        candidates = [n for n in candidates if 0.0 < n < n_max] + [n_max]
        values = _cubic(b1, b2, b3, candidates)
        n_crit = float(candidates[int(np.argmax(values))])
    if _cubic(b1, b2, b3, n_crit) <= 0.0:
        raise MfdFitError("fitted cubic is non-positive at its maximum")
    return float(n_crit)


def fit(samples: list[MfdSample]) -> MfdModel:
    """Least-squares cubic through the origin, per region.

    Requires at least 10 samples per region spanning a nonzero accumulation
    range, and a fitted flow positive on (0, 1.2 * max N], the range on which
    the critical accumulation is located.
    """
    by_region: dict[str, list[MfdSample]] = {}
    for s in samples:
        by_region.setdefault(s.region, []).append(s)
    if not by_region:
        raise MfdFitError("no samples to fit")

    params: dict[str, MfdParams] = {}
    for region in sorted(by_region):
        pts = by_region[region]
        if len(pts) < 10:
            raise MfdFitError(
                f"region {region}: need >= 10 samples, got {len(pts)}"
            )
        n = np.array([p.accumulation_veh for p in pts], dtype=float)
        g = np.array([p.completion_veh_s for p in pts], dtype=float)
        if len(np.unique(n[n > 0])) < 3:
            raise MfdFitError(
                f"region {region}: rank-deficient samples "
                "(need >= 3 distinct nonzero accumulations)"
            )
        # Column scaling keeps the Vandermonde-like system well conditioned.
        scale = n.max()
        x = np.column_stack([n / scale, (n / scale) ** 2, (n / scale) ** 3])
        coef, _, rank, _ = np.linalg.lstsq(x, g, rcond=None)
        if rank < 3:
            raise MfdFitError(f"region {region}: rank-deficient sample set")
        b1, b2, b3 = coef[0] / scale, coef[1] / scale**2, coef[2] / scale**3
        hi = 1.2 * float(n.max())
        # G(N) / N = b1 + b2 N + b3 N^2 > 0 on (0, hi]: check both ends and the vertex
        ends = [0.0, hi] + ([-b2 / (2 * b3)] if b3 > 0 and 0 < -b2 / (2 * b3) < hi else [])
        if min(b1 + (b2 + b3 * m) * m for m in ends) <= 0:
            raise MfdFitError(f"region {region}: fitted flow is not positive on (0, {hi:.1f}] veh")
        n_crit = critical_accumulation(float(b1), float(b2), float(b3), hi)
        params[region] = MfdParams(float(b1), float(b2), float(b3), n_crit, hi)
    return MfdModel(params)


def save_mfd(model: MfdModel, path) -> None:
    """Serialize a fitted model in the scenario-file format (an ``mfd`` block)."""
    with open(path, "w") as fh:
        yaml.safe_dump({"mfd": model.to_dict()}, fh, sort_keys=True)


def load_mfd(path, regions: Sequence[str]) -> MfdModel:
    """Read a file written by ``save_mfd``; it must cover exactly the
    network's ``regions``."""
    raw = read_yaml(path, "MFD file")
    if not isinstance(raw, dict) or "mfd" not in raw:
        raise ScenarioError(f"{path}: not an MFD file (missing 'mfd' block)")
    try:
        return MfdModel(mfd_from_dict(raw["mfd"], regions))
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
