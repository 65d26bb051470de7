"""Upper-level joint perimeter-control and route-guidance program.

Each macro step this module picks gating fractions b (one per ordered
boundary) and hyper-path splits c (one per region/next-region/destination
triple) that minimize the worst next-step overshoot z of any region's
accumulation beyond its critical value, subject to boundary flow envelopes
and per-OD split bounds; among the minimizers it takes the one with the most
total boundary flow.

Everything but the bilinear transfer b*c is linear: ``_Problem`` builds the
linear maps and the variable bounds once per macro step.  With each product
replaced by a variable held between McCormick's (1976) four planes over a
box, the program becomes an LP that HiGHS solves exactly.  ``_Problem`` also
fixes the LP's sparse pattern once; each LP writes its bounds and the four
McCormick blocks' b and c coefficients into it, by index, and goes straight
to ``scipy.optimize._highspy._core``, the HiGHS module ``milp`` calls: the
Python layer of ``milp`` around it cost as much as the solve.  Over the full
box that LP bounds z and total flow from below and above; an infeasible LP
certifies an infeasible program.
Over a box that pins c (or b) the planes are exact, so fixing one side and
solving for the other gives feasible points, and ``solve`` returns such a
point.  No iterative local solver is involved, so results do not depend on
BLAS threading.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.optimize import OptimizeResult
from scipy.optimize._highspy import _core as highs
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

from .macrodyn import CompletionModel, MacroState
from .routectl import RouteCounts, VehicleRoutes

logger = logging.getLogger(__name__)

BKey = tuple[str, str]
TKey = tuple[str, str, str]

_EMPTY_REGION_VEH = 1.0  # regions below this stock impose no flow constraint
_FEASIBILITY_TOL = 1e-6
_Z_TIE = 1e-9  # z that stage 2 may add to stage 1's: LP rounding
_Z_GAP_TOL = 1e-7  # times 1 + |z|
_FLOW_GAP_TOL = 1e-9  # veh/s
_MC_SIGNS = np.array([[1.0], [1.0], [-1.0], [-1.0]])  # McCormick blocks: above, above, below, below


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
    z_bound: float  # relaxation's minimum of z; NaN when it has no point
    flow_bound: float  # relaxation's maximum total flow with z capped at z + _Z_TIE
    message: str = ""

    @property
    def z_gap(self) -> float:
        return self.z - self.z_bound

    @property
    def flow_gap(self) -> float:
        return self.flow_bound - sum(self.m.values())


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
    """One macro step's program as constant linear maps of the transfer vector.

    Variables are x = (b, c, z).  Each split variable (i, h, j) moves
    ``moved = b[(i, h)] * c[(i, h, j)] * kappa[(i, j)]`` vehicles, so the
    overshoots are ``base + region_map @ moved`` and the boundary flows are
    ``flow_map @ moved``.
    """

    def __init__(self, state: MacroState, mfd: CompletionModel, bounds: ControlBounds):
        regions = list(state.regions)
        region_index = {r: k for k, r in enumerate(regions)}
        acc = state.accumulations()
        t = state.t_macro_s

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

        self.nb = len(self.b_keys)
        self.nc = len(self.c_keys)
        self.nv = self.nb + self.nc + 1  # + auxiliary z
        self.zi = self.nv - 1
        self.b_index = {k: n for n, k in enumerate(self.b_keys)}
        self.c_index = {k: self.nb + n for n, k in enumerate(self.c_keys)}
        od_index = {od: k for k, od in enumerate(self.active_od)}

        kappa_od = {
            (i, j): state.n[(i, j)] / acc[i] * mfd.evaluate(i, acc[i]) * t
            for (i, j) in self.active_od
        }
        self.kappa = np.array([kappa_od[(i, j)] for (i, h, j) in self.c_keys])
        self.c_b = np.array([self.b_index[(i, h)] for (i, h, j) in self.c_keys], dtype=int)
        self.c_cols = np.arange(self.nb, self.nb + self.nc)
        rows = np.arange(self.nc)

        self.region_map = np.zeros((len(regions), self.nc))
        self.region_map[[region_index[i] for (i, h, j) in self.c_keys], rows] = -1.0
        self.region_map[[region_index[h] for (i, h, j) in self.c_keys], rows] = 1.0
        self.flow_map = np.zeros((self.nb, self.nc))
        self.flow_map[self.c_b, rows] = 1.0 / t
        self.split_sum = np.zeros((len(self.active_od), self.nv))
        self.split_sum[[od_index[(i, j)] for (i, h, j) in self.c_keys], self.c_cols] = 1.0

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
        open_b = [acc[i] >= _EMPTY_REGION_VEH for (i, h) in self.b_keys]
        self.env_rows = np.flatnonzero(open_b)
        self.m_min = np.array([bounds.m_min[self.b_keys[n]] for n in self.env_rows])
        self.m_max = np.array([bounds.m_max[self.b_keys[n]] for n in self.env_rows])

        self.lb = np.concatenate(
            [np.where(open_b, 0.0, 1.0), [bounds.c_min[k] for k in self.c_keys], [-np.inf]]
        )
        self.ub = np.concatenate(
            [np.ones(self.nb), [bounds.c_max[k] for k in self.c_keys], [np.inf]]
        )
        self.c_lo = self.lb[self.c_cols]
        self.c_hi = self.ub[self.c_cols]

        # The relaxation's variables are (b, c, z, w, s): w stands for moved
        # and s relieves the envelope rows, m_min - s <= flow <= m_max + s.
        # Its rows, row_lower_ <= A @ (b, c, z, w, s) <= lp_hi: overshoot <= z,
        # the two envelope rows, four McCormick blocks of one row per split
        # variable, then the split sums.  Only the McCormick blocks' b and c
        # coefficients and bounds depend on the box (``constraints``), so
        # ``lp`` fixes A's CSC pattern here, once per macro step.
        n_region, n_env, n_od = len(regions), len(self.env_rows), len(self.active_od)
        w_cols = np.arange(self.nv, self.nv + self.nc)
        s_col = self.nv + self.nc
        mc_row0 = n_region + 2 * n_env
        n_ub = mc_row0 + 4 * self.nc
        a = np.zeros((n_ub + n_od, s_col + 1))
        a[:n_region, w_cols] = self.region_map
        a[:n_region, self.zi] = -1.0
        env = self.flow_map[self.env_rows]
        a[n_region : n_region + n_env, w_cols] = env
        a[n_region + n_env : mc_row0, w_cols] = -env
        a[n_region:mc_row0, s_col] = -1.0
        self.mc_rows = mc_row0 + np.arange(4 * self.nc)
        a[self.mc_rows, np.tile(w_cols, 4)] = -np.repeat(_MC_SIGNS, self.nc)
        a[n_ub:, : self.nv] = self.split_sum
        mc_b, mc_c = (self.mc_rows, np.tile(self.c_b, 4)), (self.mc_rows, np.tile(self.c_cols, 4))
        a[mc_b] = a[mc_c] = np.nan  # set per LP; in the pattern even where 0 (closed gate, c_min 0)
        cols, rows = np.nonzero(a.T)  # column by column, rows ascending
        self.lp_values = a[rows, cols]
        slot = np.zeros(a.shape, dtype=int)  # slot[r, k]: A[r, k]'s index in lp_values
        slot[rows, cols] = np.arange(len(rows))
        self.mc_b_slots, self.mc_c_slots = slot[mc_b], slot[mc_c]
        self.lp_hi = np.concatenate(
            [-self.base, self.m_max, -self.m_min, np.zeros(4 * self.nc), np.ones(n_od)]
        )
        self.lp = highs.HighsLp()  # ``relaxation`` sets A's values, row_upper_ and the columns
        matrix = self.lp.a_matrix_
        self.lp.num_row_, self.lp.num_col_ = matrix.num_row_, matrix.num_col_ = a.shape
        matrix.start_, matrix.index_ = np.searchsorted(cols, np.arange(a.shape[1] + 1)), rows
        self.lp.row_lower_ = np.concatenate([np.full(n_ub, -np.inf), np.ones(n_od)])

    def constraints(self, lb: np.ndarray, ub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A's values in ``lp``'s pattern and row_upper_ over the box ``lb <= (b, c, z) <= ub``.

        Block k holds w above (sign +1) or below (sign -1) the tangent plane
        of b*c*kappa at one box corner, (lo, lo), (hi, hi), (lo, hi) and
        (hi, lo) in turn (McCormick 1976): per split row n, the partials
        c*kappa and b*kappa at the corner on b[c_b[n]] and c[n], and -1 on
        w[n].  Where the box pins b or c to one value, these planes are
        w = b*c*kappa.
        """
        lo_hi = np.concatenate([lb[: self.nb], ub[self.nb :]])
        hi_lo = np.concatenate([ub[: self.nb], lb[self.nb :]])
        corners = np.array([lb, ub, lo_hi, hi_lo])
        b, c = corners[:, self.c_b], corners[:, self.c_cols]
        values, hi = self.lp_values.copy(), self.lp_hi.copy()
        values[self.mc_b_slots] = (_MC_SIGNS * (c * self.kappa)).ravel()
        values[self.mc_c_slots] = (_MC_SIGNS * (b * self.kappa)).ravel()
        hi[self.mc_rows] = (_MC_SIGNS * (b * c * self.kappa)).ravel()
        return values, hi

    def relaxation(
        self, lb: np.ndarray, ub: np.ndarray, z_cap: float | None = None, elastic: bool = False
    ) -> OptimizeResult:
        """The McCormick LP over the box ``lb <= (b, c, z) <= ub``, solved by
        a new HiGHS as ``milp`` would, with ``milp``'s success, x, fun and
        message.  Without ``z_cap`` it minimizes z; with it, it maximizes
        total boundary flow (``-fun``) subject to z <= z_cap.  ``elastic``
        frees the envelope slack s and minimizes it instead.  Where the box
        pins b or c to one value, the LP is the program itself.
        """
        cost = np.zeros(self.nv + self.nc + 1)
        upper = np.concatenate([ub, np.full(self.nc, np.inf), [np.inf if elastic else 0.0]])
        if elastic:
            cost[-1] = 1.0
        elif z_cap is None:
            cost[self.zi] = 1.0
        else:
            cost[self.nv : -1] = -self.flow_map.sum(axis=0)
            upper[self.zi] = z_cap
        lower = np.append(lb, np.zeros(self.nc + 1))
        lp, solver = self.lp, highs._Highs()
        lp.a_matrix_.value_, lp.row_upper_ = self.constraints(lb, ub)
        lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, lower, upper
        solver.setOptionValue("log_to_console", False)  # the one option ``milp`` sets
        if solver.passModel(lp) == highs.HighsStatus.kError:  # e.g. a NaN; run() would crash
            ran, status = highs.HighsStatus.kError, highs.HighsModelStatus.kModelError
        else:
            ran, status = solver.run(), solver.getModelStatus()
        info = solver.getInfo()
        res = OptimizeResult(success=status == highs.HighsModelStatus.kOptimal, x=None, fun=None)
        detail = solver.modelStatusToString(status)
        if res.success:
            res.x, res.fun = np.array(solver.getSolution().col_value), info.objective_function_value
        elif ran != highs.HighsStatus.kError:
            primal = solver.solutionStatusToString(info.primal_solution_status)
            detail = f"model_status is {detail}; primal_status is {primal}"
        res.message = _highs_to_scipy_status_message(status, detail)[1]
        return res

    def moved(self, x: np.ndarray) -> np.ndarray:
        """Vehicles moved per split variable, b*c*kappa."""
        return x[self.c_b] * x[self.c_cols] * self.kappa

    def g(self, x: np.ndarray) -> np.ndarray:
        """Overshoot of each region's predicted accumulation beyond critical."""
        return self.base + self.region_map @ self.moved(x)

    def flows(self, x: np.ndarray) -> np.ndarray:
        """Flow over every boundary in ``b_keys``, veh/s."""
        return self.flow_map @ self.moved(x)

    def point(self, x: np.ndarray) -> np.ndarray:
        """x's (b, c) clipped into the box, with z the exact worst overshoot."""
        y = np.clip(x[: self.nv], self.lb, self.ub)
        y[self.zi] = float(np.max(self.g(y)))
        return y

    def residual(self, x: np.ndarray) -> float:
        m = self.flows(x)[self.env_rows]
        c = x[self.c_cols]
        return max(
            float(np.max(self.m_min - m, initial=0.0)),
            float(np.max(m - self.m_max, initial=0.0)),
            float(np.max(self.c_lo - c, initial=0.0)),
            float(np.max(c - self.c_hi, initial=0.0)),
            float(np.max(np.abs(self.split_sum @ x - 1.0), initial=0.0)),
        )


def _validate_bounds(problem: _Problem) -> str:
    split = problem.split_sum[:, problem.c_cols]
    for od, lo, hi in zip(problem.active_od, split @ problem.c_lo, split @ problem.c_hi):
        if lo > 1.0 + 1e-12:
            return f"sum of c_min for OD {od} is {lo:.4f} > 1"
        if hi < 1.0 - 1e-12:
            return f"sum of c_max for OD {od} is {hi:.4f} < 1"
    for n, lo, hi in zip(problem.env_rows, problem.m_min, problem.m_max):
        if lo > hi + 1e-12:
            return f"flow bounds for boundary {problem.b_keys[n]} are inverted ({lo} > {hi})"
    return ""


def _exact_point(
    problem: _Problem, x: np.ndarray, z_cap: float | None = None
) -> np.ndarray | None:
    """Fix c at x's c, clipped into its box, and solve the exact LP in b;
    then fix b at that point and solve the exact LP in c.  The first LP's
    point is feasible in the second, so the second is never worse.  None
    when either LP fails."""
    for fixed in (problem.c_cols, slice(problem.nb)):
        lb, ub = problem.lb.copy(), problem.ub.copy()
        lb[fixed] = ub[fixed] = np.clip(x[fixed], lb[fixed], ub[fixed])
        lp = problem.relaxation(lb, ub, z_cap)
        if not lp.success:
            return None
        x = lp.x
    return problem.point(x)


def solve(state: MacroState, mfd: CompletionModel, bounds: ControlBounds) -> ControlSolution:
    """Solve the joint program for one macro step.

    Stage 1 minimizes z and stage 2 maximizes total flow with z capped at
    stage 1's z plus ``_Z_TIE``.  Each stage solves three LPs: the McCormick
    LP over the full box, which gives ``z_bound`` or ``flow_bound``, then
    the exact LP in b with c fixed at that LP's c, then the exact LP in c
    with b fixed at the point found (``_exact_point``).  If stage 2 finds no
    point, or one with less total flow, stage 1's point stands.  A gap above
    tolerance logs a warning.

    When the relaxation is infeasible, so is the program: the returned point
    is that of the same LP with one slack s on the envelope rows
    (m_min - s <= flow <= m_max + s), minimized, with ``feasible=False`` and
    the reason in ``message``.  If split bounds cannot sum to 1, the gates
    are open and each OD is split evenly.
    """
    state.validate()
    problem = _Problem(state, mfd, bounds)
    message = _validate_bounds(problem)
    box = problem.lb, problem.ub
    lp = problem.relaxation(*box)
    if not lp.success:
        message = message or f"McCormick relaxation: {lp.message}"
        lp = problem.relaxation(*box, elastic=True)
    if lp.success:
        x = problem.point(lp.x)
    else:  # only split bounds that cannot sum to 1 defeat the elastic LP
        split = problem.split_sum[:, problem.c_cols]
        x = problem.ub.copy()  # gates open, each OD split evenly
        x[problem.c_cols] = split.T @ (1.0 / split.sum(axis=1))
        x[problem.zi] = float(np.max(problem.g(x)))

    z_bound = flow_bound = np.nan
    if not message:
        z_bound = lp.fun
        exact = _exact_point(problem, x)
        if exact is not None:
            x = exact
        if problem.residual(x) > _FEASIBILITY_TOL:
            message = "the exact LPs found no point within the feasibility tolerance"
    if not message:
        z_cap = x[problem.zi] + _Z_TIE
        stage2 = problem.relaxation(*box, z_cap)
        if stage2.success:
            flow_bound = -stage2.fun
            # stage 1's point need not be feasible with c fixed at stage 2's
            exact = _exact_point(problem, stage2.x, z_cap)
            if exact is not None and problem.flows(exact).sum() >= problem.flows(x).sum():
                x = exact

    c_out = {key: float(x[n]) for key, n in problem.c_index.items()}
    # inactive ODs: report the uniform split so downstream consumers always
    # see a full simplex per OD
    for (i, j) in sorted(state.n):
        if i != j and (i, j) not in problem.active_od:
            c_out.update({(i, h, j): 1.0 / len(state.adjacency[i]) for h in state.adjacency[i]})

    sol = ControlSolution(
        b={key: float(x[n]) for key, n in problem.b_index.items()},
        c=c_out,
        z=float(x[problem.zi]),
        m={key: float(m) for key, m in zip(problem.b_keys, problem.flows(x))},
        residual=float(problem.residual(x)),
        feasible=not message,
        z_bound=float(z_bound),
        flow_bound=float(flow_bound),
        message=message,
    )
    if message:
        logger.warning("joint control infeasible: %s", message)
    elif not (sol.z_gap <= _Z_GAP_TOL * (1.0 + abs(sol.z)) and sol.flow_gap <= _FLOW_GAP_TOL):
        logger.warning("joint control gaps: z %.3g, flow %.3g", sol.z_gap, sol.flow_gap)
    return sol
