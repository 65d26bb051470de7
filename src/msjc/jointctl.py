"""Upper-level joint perimeter-control and route-guidance program.

Each macro step this module picks gating fractions b (one per ordered
boundary) and hyper-path splits c (one per region/next-region/destination
triple) that minimize the worst next-step overshoot z of any region's
accumulation beyond its critical value, subject to boundary flow envelopes
and per-OD split bounds; among the minimizers it takes the one with the most
total boundary flow.

Everything but the bilinear transfer b*c is linear: ``_Problem`` builds the
linear maps and the variable bounds once per macro step.  With each product
replaced by a variable held between McCormick's (1976) four planes, the
program becomes an LP that HiGHS solves exactly.  Its bounds on z and on
total flow certify the SQP point that ``solve`` returns; an infeasible LP
certifies an infeasible program.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

import numpy as np
from scipy.optimize import Bounds, OptimizeResult, linprog, minimize

from .macrodyn import CompletionModel, MacroState

logger = logging.getLogger(__name__)

BKey = tuple[str, str]
TKey = tuple[str, str, str]

_EMPTY_REGION_VEH = 1.0  # regions below this stock impose no flow constraint
_FEASIBILITY_TOL = 1e-6
_Z_TIE = 1e-8  # z band traded for flow; SLSQP's throughput pass can fail in a 1e-9 band
_Z_GAP_TOL = 1e-7  # times 1 + |z|
_FLOW_GAP_TOL = 1e-9  # veh/s


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
    flow_bound: float  # relaxation's maximum total flow within half the z band
    message: str = ""

    @property
    def z_gap(self) -> float:
        return self.z - self.z_bound

    @property
    def flow_gap(self) -> float:
        return self.flow_bound - sum(self.m.values())


def route_bounds(
    candidates: Mapping[tuple[str, str], Sequence[Collection[str]]],
    adjacency: Mapping[str, tuple[str, ...]],
) -> tuple[dict[TKey, float], dict[TKey, float]]:
    """Split bounds from the vehicles' candidate next-region sets.

    The upper bound for next region h is the fraction of the OD's vehicles
    that could go via h at all; the lower bound is the fraction that has no
    other option.  ODs without vehicles get the vacuous (0, 1) box.
    """
    c_min: dict[TKey, float] = {}
    c_max: dict[TKey, float] = {}
    for (i, j), vehicle_sets in candidates.items():
        neighbors = adjacency[i]
        n = len(vehicle_sets)
        if n == 0:
            for h in neighbors:
                c_min[(i, h, j)] = 0.0
                c_max[(i, h, j)] = 1.0
            continue
        for sets in vehicle_sets:
            if not sets:
                raise ValueError(f"OD {(i, j)}: vehicle with empty candidate set")
        for h in neighbors:
            could = sum(1 for s in vehicle_sets if h in s)
            must = sum(1 for s in vehicle_sets if set(s) == {h})
            c_min[(i, h, j)] = must / n
            c_max[(i, h, j)] = could / n
    return c_min, c_max


class _Problem:
    """One macro step's program as constant linear maps of the transfer vector.

    Variables are x = (b, c, z).  Each split variable (i, h, j) moves
    ``moved = b[(i, h)] * c[(i, h, j)] * kappa[(i, j)]`` vehicles, so the
    overshoots are ``base + region_map @ moved``, the boundary flows are
    ``flow_map @ moved`` and every Jacobian is one of these maps times
    d(moved)/dx.
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
        self.od_cols = [np.flatnonzero(row) for row in self.split_sum]

        # The relaxation's variables are (b, c, z, w): w stands for moved and
        # is held above the tangent planes of b*c*kappa at the box corners
        # (lo, lo) and (hi, hi) and below those at the two mixed corners
        # (McCormick 1976).
        pick_w = np.hstack([np.zeros((self.nc, self.nv)), np.eye(self.nc)])
        over = self.region_map @ pick_w
        over[:, self.zi] = -1.0
        env = self.flow_map[self.env_rows] @ pick_w
        a_ub, b_ub = [over, env, -env], [-self.base, self.m_max, -self.m_min]
        lo_hi = np.concatenate([self.lb[: self.nb], self.ub[self.nb :]])
        hi_lo = np.concatenate([self.ub[: self.nb], self.lb[self.nb :]])
        for sign, corner in ((1.0, self.lb), (1.0, self.ub), (-1.0, lo_hi), (-1.0, hi_lo)):
            a_ub.append(sign * np.hstack([self.moved_jac(corner), -np.eye(self.nc)]))
            b_ub.append(sign * self.moved(corner))
        self.lp_ub = np.vstack(a_ub), np.concatenate(b_ub)
        n_od = len(self.active_od)
        self.lp_eq = np.hstack([self.split_sum, np.zeros((n_od, self.nc))]), np.ones(n_od)
        self.lp_bounds = np.column_stack(
            [np.append(self.lb, np.zeros(self.nc)), np.append(self.ub, np.full(self.nc, np.inf))]
        )

    def relaxation(self, z_cap: float | None = None) -> OptimizeResult:
        """The McCormick LP, solved by HiGHS.  Without ``z_cap`` it minimizes
        z; with it, it maximizes total boundary flow (``-fun``) subject to
        z <= z_cap."""
        cost = np.zeros(self.nv + self.nc)
        bounds = self.lp_bounds.copy()
        if z_cap is None:
            cost[self.zi] = 1.0
        else:
            cost[self.nv :] = -self.flow_map.sum(axis=0)
            bounds[self.zi, 1] = z_cap
        return linprog(cost, *self.lp_ub, *self.lp_eq, bounds, method="highs")

    def moved(self, x: np.ndarray) -> np.ndarray:
        """Vehicles moved per split variable, b*c*kappa."""
        return x[self.c_b] * x[self.c_cols] * self.kappa

    def moved_jac(self, x: np.ndarray) -> np.ndarray:
        rows = np.arange(self.nc)
        jac = np.zeros((self.nc, self.nv))
        jac[rows, self.c_b] = x[self.c_cols] * self.kappa
        jac[rows, self.c_cols] = x[self.c_b] * self.kappa
        return jac

    def g(self, x: np.ndarray) -> np.ndarray:
        """Overshoot of each region's predicted accumulation beyond critical."""
        return self.base + self.region_map @ self.moved(x)

    def flows(self, x: np.ndarray) -> np.ndarray:
        """Flow over every boundary in ``b_keys``, veh/s."""
        return self.flow_map @ self.moved(x)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Clip b into its boxes, project each OD's c onto its bounded
        simplex and recompute z exactly at the projected point."""
        y = x.copy()
        y[: self.nb] = np.clip(y[: self.nb], self.lb[: self.nb], self.ub[: self.nb])
        for cols in self.od_cols:
            y[cols] = _project_capped_simplex(y[cols], self.lb[cols], self.ub[cols])
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


def _project_capped_simplex(
    v: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Euclidean projection onto {lo <= x <= hi, sum x = 1}; when the box
    itself cannot reach sum 1, return the nearest box corner.

    The projection is clip(v + tau, lo, hi) for the tau at which its sum is 1.
    That sum is piecewise linear in tau with breakpoints lo - v and hi - v,
    so tau is interpolated exactly between the two breakpoints that bracket 1
    (Held, Wolfe & Crowder 1974).
    """
    if lo.sum() > 1.0:
        return lo.copy()
    if hi.sum() < 1.0:
        return hi.copy()
    taus = np.sort(np.concatenate([lo - v, hi - v]))
    sums = np.clip(v + taus[:, None], lo, hi).sum(axis=1)
    return np.clip(v + np.interp(1.0, sums, taus), lo, hi)


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


def _sqp(problem: _Problem, x0: np.ndarray, z_cap: float | None = None) -> np.ndarray:
    """SLSQP from x0, its end point put back through ``project`` (x0 itself
    if SLSQP fails).  Without ``z_cap`` it minimizes z; with it, it
    maximizes total boundary flow subject to z <= z_cap."""
    z_col = np.zeros(problem.nv)
    z_col[problem.zi] = 1.0

    def overshoot_jac(x):
        jac = -problem.region_map @ problem.moved_jac(x)
        jac[:, problem.zi] = 1.0
        return jac

    cons = [
        {"type": "ineq", "fun": lambda x: x[problem.zi] - problem.g(x), "jac": overshoot_jac}
    ]
    if len(problem.env_rows):
        env_map = problem.flow_map[problem.env_rows]

        def envelope(x):
            m = env_map @ problem.moved(x)
            return np.concatenate([problem.m_max - m, m - problem.m_min])

        def envelope_jac(x):
            jac = env_map @ problem.moved_jac(x)
            return np.vstack([-jac, jac])

        cons.append({"type": "ineq", "fun": envelope, "jac": envelope_jac})
    if problem.active_od:
        cons.append(
            {
                "type": "eq",
                "fun": lambda x: problem.split_sum @ x - 1.0,
                "jac": lambda x: problem.split_sum,
            }
        )

    ub = problem.ub
    if z_cap is None:
        fun = lambda x: x[problem.zi]
        jac = lambda x: z_col
    else:
        ub = ub.copy()
        ub[problem.zi] = z_cap
        scale = 1.0 / max(1.0, float(np.max(np.abs(problem.kappa), initial=1.0)))
        fun = lambda x: -problem.flows(x).sum() * scale
        jac = lambda x: -problem.flow_map.sum(axis=0) @ problem.moved_jac(x) * scale

    try:
        res = minimize(
            fun,
            x0,
            jac=jac,
            bounds=Bounds(problem.lb, ub),
            constraints=cons,
            method="SLSQP",
            options={"maxiter": 200, "ftol": 1e-10},
        )
    except Exception as exc:  # solver hiccup: keep the start point
        logger.warning("SLSQP failed: %s", exc)
        return x0.copy()
    return problem.project(res.x)


def solve(state: MacroState, mfd: CompletionModel, bounds: ControlBounds) -> ControlSolution:
    """Solve the joint program for one macro step.

    The stage-1 McCormick LP gives ``z_bound`` and a start, its (b, c)
    projected onto the exact boxes and simplices; one SQP descent from
    there minimizes z.  The stage-2 LP (max total flow with z held within
    half of ``_Z_TIE`` above that minimum) gives ``flow_bound``, and a
    throughput SQP pass raises flow under the same cap, retried from the
    stage-2 point while the flow gap is open.  A gap above tolerance logs a
    warning.

    When the relaxation is infeasible, so is the program: one descent from
    the gates open and the splits at their box midpoints gives the returned
    point, with ``feasible=False`` and the reason in ``message``.
    """
    state.validate()
    problem = _Problem(state, mfd, bounds)
    message = _validate_bounds(problem)
    lp = problem.relaxation()
    if lp.success:
        x0 = lp.x[: problem.nv]
    else:
        message = message or f"McCormick relaxation: {lp.message}"
        x0 = np.concatenate([np.ones(problem.nb), 0.5 * (problem.c_lo + problem.c_hi), [0.0]])
    x = _sqp(problem, problem.project(x0))
    if problem.residual(x) > _FEASIBILITY_TOL and not message:
        message = "SQP did not reach the feasibility tolerance"

    z_bound = flow_bound = np.nan
    if not message:
        z_bound = lp.fun
        # z may rise by half the band to gain flow; the other half absorbs
        # rounding in the projection
        z_cap = x[problem.zi] + 0.5 * _Z_TIE
        stage2 = problem.relaxation(z_cap)
        flow_bound = -stage2.fun if stage2.success else np.nan
        # a throughput pass from the descent's point, then, while the flow
        # gap is open, one from the stage-2 point
        for start in (x, stage2.x):
            if start is None or flow_bound - problem.flows(x).sum() <= _FLOW_GAP_TOL:
                break
            y = _sqp(problem, problem.project(start[: problem.nv]), z_cap)
            if (
                problem.residual(y) <= _FEASIBILITY_TOL
                and y[problem.zi] <= z_cap + 0.5 * _Z_TIE
                and problem.flows(y).sum() > problem.flows(x).sum() + 1e-12
            ):
                x = y

    c_out = {key: float(x[n]) for key, n in problem.c_index.items()}
    # inactive ODs: report the uniform split so downstream consumers always
    # see a full simplex per OD
    for (i, j) in sorted(state.n):
        if i != j and (i, j) not in problem.active_od:
            neighbors = state.adjacency[i]
            for h in neighbors:
                c_out[(i, h, j)] = 1.0 / len(neighbors)

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
