"""Upper-level joint perimeter-control and route-guidance program.

Each macro step this module picks gating fractions b (one per ordered
boundary) and hyper-path splits c (one per region/next-region/destination
triple) that minimize the worst next-step overshoot z of any region's
accumulation beyond its critical value, subject to boundary flow envelopes
and per-OD split bounds; among the minimizers it takes the one with the most
total boundary flow.

The overshoots and the flows depend on b and c only through the flow over
each ordered boundary, m_ih = b_ih * sum_j c_ihj * kappa_ij / t, and the
gate's range 0 <= b_ih <= 1 is 0 <= t * m_ih <= sum_j c_ihj * kappa_ij.  So
the program is exactly linear in (m, c, z), and its two stages are two LPs
(``_Problem``).  No iterative local solver is involved, so results do not
depend on BLAS threading.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core as highs

from .macrodyn import CompletionModel, MacroState
from .routectl import RouteCounts, VehicleRoutes

logger = logging.getLogger(__name__)

BKey = tuple[str, str]
TKey = tuple[str, str, str]

_EMPTY_REGION_VEH = 1.0  # regions below this stock impose no flow constraint
_FEASIBILITY_TOL = 1e-6
_Z_TIE = 1e-9  # z that stage 2 may add to stage 1's: LP rounding


@dataclass(frozen=True)
class ControlBounds:
    m_min: dict[BKey, float]
    m_max: dict[BKey, float]
    c_min: dict[TKey, float]
    c_max: dict[TKey, float]


@dataclass
class ControlSolution:
    b: dict[BKey, float]
    c: dict[TKey, float]
    z: float
    m: dict[BKey, float]
    residual: float
    feasible: bool
    message: str = ""


def route_bounds(
    counts: Mapping[str, RouteCounts],
    choices: Mapping[str, list[VehicleRoutes]],
    adjacency: Mapping[str, tuple[str, ...]],
) -> tuple[dict[TKey, float], dict[TKey, float]]:
    """Split bounds from the step's route tables (``routectl.route_tables``):
    per origin region, its vehicles counted by (next region, destination) of
    their last candidate, and its vehicles with a choice.

    The upper bound for next region h is the fraction of the OD's vehicles
    that could go via h at all; the lower bound is the fraction whose only
    next region is h (also when both candidates go via h).  Counts are
    integers, so each bound is one exact division.
    """
    c_min: dict[TKey, float] = {}
    c_max: dict[TKey, float] = {}
    for i, region_counts in counts.items():
        could, must = Counter(region_counts.next_keys), Counter(region_counts.next_keys)
        for vr in choices.get(i, ()):
            first, last = (r.next_region for r in vr.routes)
            if first != last:  # could also go via first; need not go via last
                could[(first, vr.dest_region)] += 1
                must[(last, vr.dest_region)] -= 1
        ods = [(j, n) for j, n in region_counts.destinations.items() if j != i]
        c_min.update({(i, h, j): must[(h, j)] / n for j, n in ods for h in adjacency[i]})
        c_max.update({(i, h, j): could[(h, j)] / n for j, n in ods for h in adjacency[i]})
    return c_min, c_max


class _Problem:
    """One macro step's program as one LP in x = (m, c, z, s): m the flow
    over each ordered boundary of ``b_keys`` (veh/s), c the splits of
    ``c_keys``, z the worst overshoot and s a slack on the flow envelopes,
    fixed at 0 except in the elastic LP.  Split (i, h, j) can move ``kappa``
    vehicles of OD (i, j) via h.  The rows, row_lower_ <= A @ x <=
    row_upper_, in order:

    - overshoot: base + t * R @ m - z <= 0, R -1 for a boundary's sender and
      +1 for its receiver (``region_map`` is t * R);
    - envelope: m - s <= m_max and -m - s <= -m_min for every open sender;
    - gate: t * m_ih - sum_j kappa_ij * c_ihj <= 0, an equality for a gate
      pinned open (an empty sender, which has no split to move);
    - split sums: sum_h c_ihj = 1 for every active OD.
    """

    def __init__(self, state: MacroState, mfd: CompletionModel, bounds: ControlBounds):
        regions = list(state.regions)
        region_index = {r: k for k, r in enumerate(regions)}
        acc = state.accumulations()
        self.t = t = state.t_macro_s

        self.b_keys: list[BKey] = sorted(
            (i, h) for i in state.regions for h in state.adjacency[i]
        )
        # ODs that move mass this step: sender occupied and stock present
        self.active_od = sorted(
            (i, j)
            for (i, j), stock in state.n.items()
            if i != j and stock > 0.0 and acc[i] >= _EMPTY_REGION_VEH
        )
        self.c_keys: list[TKey] = sorted(
            (i, h, j) for (i, j) in self.active_od for h in state.adjacency[i]
        )
        nb, nc = len(self.b_keys), len(self.c_keys)
        self.nb = nb
        self.c_cols, self.zi, self.si = slice(nb, nb + nc), nb + nc, nb + nc + 1
        b_index = {k: n for n, k in enumerate(self.b_keys)}
        od_index = {od: k for k, od in enumerate(self.active_od)}

        self.kappa = np.array(
            [state.n[(i, j)] / acc[i] * mfd.evaluate(i, acc[i]) * t for (i, h, j) in self.c_keys]
        )
        self.c_b = np.array([b_index[(i, h)] for (i, h, j) in self.c_keys], dtype=int)
        splits = np.arange(nc)
        self.split_sum = np.zeros((len(self.active_od), nc))
        self.split_sum[[od_index[(i, j)] for (i, h, j) in self.c_keys], splits] = 1.0
        self.region_map = np.zeros((len(regions), nb))
        self.region_map[[region_index[i] for (i, h) in self.b_keys], np.arange(nb)] = -t
        self.region_map[[region_index[h] for (i, h) in self.b_keys], np.arange(nb)] = t

        type2 = {
            i: state.n.get((i, i), 0.0) / acc[i] * mfd.evaluate(i, acc[i]) * t
            if acc[i] > 0.0
            else 0.0
            for i in regions
        }
        self.base = np.array(
            [
                acc[i]
                + sum(state.q.get((i, j), 0.0) for j in regions)
                - type2[i]
                - mfd.critical(i)
                for i in regions
            ]
        )

        # an empty sender's gate is pinned open and its flow envelope dropped
        open_b = np.array([acc[i] >= _EMPTY_REGION_VEH for (i, h) in self.b_keys], dtype=bool)
        self.env_rows = np.flatnonzero(open_b)
        self.m_min = np.array([bounds.m_min[self.b_keys[n]] for n in self.env_rows])
        self.m_max = np.array([bounds.m_max[self.b_keys[n]] for n in self.env_rows])
        self.c_lo = np.array([bounds.c_min[k] for k in self.c_keys])
        self.c_hi = np.array([bounds.c_max[k] for k in self.c_keys])
        self.lower = np.concatenate([np.zeros(nb), self.c_lo, [-np.inf, 0.0]])
        self.upper = np.concatenate([np.full(nb, np.inf), self.c_hi, [np.inf, 0.0]])

        # A is the same for every LP of the step: ``minimize`` sets the rest
        n_region, n_env = len(regions), len(self.env_rows)
        g0 = n_region + 2 * n_env  # first gate row; the split sums follow the gates
        a = np.zeros((g0 + nb + len(self.active_od), self.si + 1))
        a[:n_region, :nb], a[:n_region, self.zi] = self.region_map, -1.0
        env = n_region + np.arange(n_env)
        a[env, self.env_rows], a[env + n_env, self.env_rows], a[n_region:g0, self.si] = 1, -1, -1
        a[g0 + np.arange(nb), np.arange(nb)] = t
        a[g0 + self.c_b, nb + splits] = -self.kappa
        a[g0 + nb :, self.c_cols] = self.split_sum
        a = sparse.csc_array(a)
        self.lp = lp = highs.HighsLp()
        matrix = lp.a_matrix_
        lp.num_row_, lp.num_col_ = matrix.num_row_, matrix.num_col_ = a.shape
        matrix.start_, matrix.index_, matrix.value_ = a.indptr, a.indices, a.data
        lp.row_lower_ = np.concatenate(
            [np.full(g0, -np.inf), np.where(open_b, -np.inf, 0.0), np.ones(len(self.active_od))]
        )
        lp.row_upper_ = np.concatenate(
            [-self.base, self.m_max, -self.m_min, np.zeros(nb), np.ones(len(self.active_od))]
        )

    def minimize(
        self, z_cap: float | None = None, elastic: bool = False
    ) -> tuple[np.ndarray | None, str]:
        """Solve one LP by a new HiGHS, through ``scipy.optimize._highspy``'s
        ``_core``, as ``milp`` does: the Python layer of ``milp`` or
        ``linprog`` around it costs about as much as the solve.  Without
        ``z_cap`` the LP minimizes z; with it, it maximizes total flow
        subject to z <= z_cap.  ``elastic`` frees the envelope slack s and
        minimizes it instead.  Returns the optimal x, or None and HiGHS's
        model status."""
        cost, upper = np.zeros(self.si + 1), self.upper.copy()
        if elastic:
            cost[self.si], upper[self.si] = 1.0, np.inf
        elif z_cap is None:
            cost[self.zi] = 1.0
        else:
            cost[: self.nb], upper[self.zi] = -1.0, z_cap
        lp, solver = self.lp, highs._Highs()
        lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, self.lower, upper
        solver.setOptionValue("log_to_console", False)
        status = highs.HighsModelStatus.kModelError
        if solver.passModel(lp) != highs.HighsStatus.kError:  # e.g. a NaN; run() would crash
            solver.run()
            status = solver.getModelStatus()
        if status == highs.HighsModelStatus.kOptimal:
            return np.array(solver.getSolution().col_value), ""
        return None, solver.modelStatusToString(status)

    def gates(self, m: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The gates that let the flows m through at splits c, and the flows
        they do let through.  A gate wide open lets through its capacity,
        sum_j c_ihj * kappa_ij vehicles; b = t * m / capacity, clipped to
        [0, 1], and 1 where the capacity is 0, as nothing moves either way."""
        capacity = np.bincount(self.c_b, c * self.kappa, minlength=self.nb)
        b = np.ones(self.nb)
        np.divide(self.t * m, capacity, out=b, where=capacity > 0.0)
        b = np.clip(b, 0.0, 1.0)
        return b, b * capacity / self.t

    def residual(self, m: np.ndarray, c: np.ndarray) -> float:
        m = m[self.env_rows]
        return max(
            float(np.max(self.m_min - m, initial=0.0)),
            float(np.max(m - self.m_max, initial=0.0)),
            float(np.max(self.c_lo - c, initial=0.0)),
            float(np.max(c - self.c_hi, initial=0.0)),
            float(np.max(np.abs(self.split_sum @ c - 1.0), initial=0.0)),
        )


def _validate_bounds(problem: _Problem) -> str:
    split = problem.split_sum
    for od, lo, hi in zip(problem.active_od, split @ problem.c_lo, split @ problem.c_hi):
        if lo > 1.0 + 1e-12:
            return f"sum of c_min for OD {od} is {lo:.4f} > 1"
        if hi < 1.0 - 1e-12:
            return f"sum of c_max for OD {od} is {hi:.4f} < 1"
    for n, lo, hi in zip(problem.env_rows, problem.m_min, problem.m_max):
        if lo > hi + 1e-12:
            return f"flow bounds for boundary {problem.b_keys[n]} are inverted ({lo} > {hi})"
    return ""


def solve(state: MacroState, mfd: CompletionModel, bounds: ControlBounds) -> ControlSolution:
    """Solve the joint program for one macro step.

    Stage 1 minimizes z; stage 2 maximizes total flow with z capped at stage
    1's z plus ``_Z_TIE``.  The point returned has stage 2's splits, clipped
    into their box, and the gates that let its flows through; its flows and
    z are those of (b, c) exactly.

    When stage 1 is infeasible, so is the program: the returned point is
    that of the same LP with one slack s on the envelope rows (m_min - s <=
    m <= m_max + s), minimized, with ``feasible=False`` and the reason in
    ``message``.  If split bounds cannot sum to 1, the gates are open and
    each OD is split evenly.
    """
    state.validate()
    problem = _Problem(state, mfd, bounds)
    message = _validate_bounds(problem)
    x, status = problem.minimize()
    if x is None:
        message = message or f"joint LP: {status}"
        x, _ = problem.minimize(elastic=True)
    if x is None:  # only split bounds that cannot sum to 1 defeat the elastic LP
        split = problem.split_sum
        c = split.T @ (1.0 / split.sum(axis=1))  # each OD split evenly
        b, m = problem.gates(np.full(problem.nb, np.inf), c)  # gates open: asked for all
    else:
        stage2 = None if message else problem.minimize(x[problem.zi] + _Z_TIE)[0]
        x = x if stage2 is None else stage2
        c = np.clip(x[problem.c_cols], problem.c_lo, problem.c_hi)
        b, m = problem.gates(x[: problem.nb], c)
    residual = problem.residual(m, c)
    if not message and residual > _FEASIBILITY_TOL:
        message = f"the LP's point is {residual:.3g} outside its bounds"

    c_out = dict(zip(problem.c_keys, c.tolist()))
    # inactive ODs: report the uniform split so downstream consumers always
    # see a full simplex per OD
    for (i, j) in sorted(state.n):
        if i != j and (i, j) not in problem.active_od:
            c_out.update({(i, h, j): 1.0 / len(state.adjacency[i]) for h in state.adjacency[i]})
    if message:
        logger.warning("joint control infeasible: %s", message)
    return ControlSolution(
        b=dict(zip(problem.b_keys, b.tolist())),
        c=c_out,
        z=float(np.max(problem.base + problem.region_map @ m)),
        m=dict(zip(problem.b_keys, m.tolist())),
        residual=residual,
        feasible=not message,
        message=message,
    )
