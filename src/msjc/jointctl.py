"""Upper-level joint perimeter-control and route-guidance program.

Each macro step this module picks gating fractions b (one per ordered
boundary) and hyper-path splits c (one per region/next-region/destination
triple) that minimize the worst next-step overshoot of any region's
accumulation beyond its critical value, subject to boundary flow envelopes
and per-OD split bounds.  The program is nonconvex (bilinear b*c terms), so
it is solved by deterministic multi-start SQP and the best local optimum is
kept; objective values within ``_Z_TIE`` of the best are ties, which break
toward higher total boundary throughput.

Everything but the bilinear transfer is linear: ``_Problem`` builds the
region, flow and split-sum matrices and the variable bounds once per macro
step, and every SQP iterate is projected back onto the split simplices with
an exact breakpoint projection.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

import numpy as np
from scipy.optimize import Bounds, minimize

from . import macrodyn
from .macrodyn import CompletionModel, MacroState

logger = logging.getLogger(__name__)

BKey = tuple[str, str]
TKey = tuple[str, str, str]

_EMPTY_REGION_VEH = 1.0  # regions below this stock impose no flow constraint
_FEASIBILITY_TOL = 1e-6
_Z_TIE = 1e-9  # objective values this close are equal; throughput decides


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
    start_index: int
    message: str = ""


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

    # -- feasibility --------------------------------------------------------

    def project(self, x: np.ndarray) -> np.ndarray:
        """Clip b into its boxes and project each OD's c onto its bounded
        simplex; z is recomputed exactly afterwards by the caller."""
        y = x.copy()
        y[: self.nb] = np.clip(y[: self.nb], self.lb[: self.nb], self.ub[: self.nb])
        for cols in self.od_cols:
            y[cols] = _project_capped_simplex(y[cols], self.lb[cols], self.ub[cols])
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


def _starts(problem: _Problem, extra: np.ndarray | None) -> list[np.ndarray]:
    rng = np.random.Generator(np.random.PCG64(20240601))
    mid = 0.5 * (problem.c_lo + problem.c_hi)
    corners = [(1.0, mid), (0.0, mid), (1.0, problem.c_hi), (0.0, problem.c_lo)]
    starts = []
    for b0, c0 in corners:
        x = np.zeros(problem.nv)
        x[: problem.nb] = b0
        x[problem.c_cols] = c0
        starts.append(x)
    for _ in range(4):
        x = np.zeros(problem.nv)
        x[: problem.nb] = rng.uniform(0.0, 1.0, problem.nb)
        x[problem.c_cols] = rng.uniform(problem.c_lo, problem.c_hi)
        starts.append(x)
    if extra is not None:
        starts.append(extra)
    out = []
    for x in starts:
        y = problem.project(x)
        y[problem.zi] = float(np.max(problem.g(y)))
        out.append(y)
    return out


def _sqp(problem: _Problem, x0: np.ndarray, z_cap: float | None = None):
    """SLSQP from x0.  Without ``z_cap`` it minimizes z; with it, it
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

    return minimize(
        fun,
        x0,
        jac=jac,
        bounds=Bounds(problem.lb, ub),
        constraints=cons,
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-10},
    )


def solve(
    state: MacroState,
    mfd: CompletionModel,
    bounds: ControlBounds,
    warm_start: ControlSolution | None = None,
) -> ControlSolution:
    """Solve the joint program for one macro step.

    Runs deterministic multi-start SQP, projects every candidate back onto
    the exact feasible boxes/simplices and recomputes the objective exactly
    at the projected point.  Candidates within ``_Z_TIE`` of the best z are
    tied; among them the highest total boundary flow wins, then the lowest
    start index, and a refinement pass raises that flow further while z
    stays within the tie.  Infeasible instances return the least-infeasible
    point with ``feasible=False`` and the binding constraint in ``message``.
    """
    state.validate()
    problem = _Problem(state, mfd, bounds)
    message = _validate_bounds(problem)

    extra = None
    if warm_start is not None:
        extra = np.zeros(problem.nv)
        for key, n in problem.b_index.items():
            extra[n] = warm_start.b.get(key, 1.0)
        for key, n in problem.c_index.items():
            extra[n] = warm_start.c.get(key, 0.0)

    candidates = []
    for idx, x0 in enumerate(_starts(problem, extra)):
        try:
            res = _sqp(problem, x0)
            x = problem.project(res.x)
        except Exception as exc:  # solver hiccup: fall back to the start point
            logger.warning("start %d failed: %s", idx, exc)
            x = x0.copy()
        x[problem.zi] = float(np.max(problem.g(x)))
        candidates.append(
            (x[problem.zi], -problem.flows(x).sum(), idx, problem.residual(x), x)
        )

    feasible = [c for c in candidates if c[3] <= _FEASIBILITY_TOL]
    pool = feasible if feasible else candidates
    z_cap = min(c[0] for c in pool) + _Z_TIE
    z_val, _, start_idx, residual, best = min(
        (c for c in pool if c[0] <= z_cap), key=lambda c: (c[1], c[2])
    )

    if feasible and len(problem.env_rows):
        try:
            # half the band, so that rounding in the projection cannot lift
            # the refined z out of it
            res = _sqp(problem, best.copy(), z_cap=z_cap - 0.5 * _Z_TIE)
            y = problem.project(res.x)
            y[problem.zi] = float(np.max(problem.g(y)))
            if (
                problem.residual(y) <= _FEASIBILITY_TOL
                and y[problem.zi] <= z_cap
                and problem.flows(y).sum() > problem.flows(best).sum() + 1e-12
            ):
                best = y
                z_val = y[problem.zi]
                residual = problem.residual(y)
        except Exception as exc:
            logger.debug("throughput refinement skipped: %s", exc)

    c_out = {key: float(best[n]) for key, n in problem.c_index.items()}
    # inactive ODs: report the uniform split so downstream consumers always
    # see a full simplex per OD
    for (i, j) in sorted(state.n):
        if i != j and (i, j) not in problem.active_od:
            neighbors = state.adjacency[i]
            for h in neighbors:
                c_out[(i, h, j)] = 1.0 / len(neighbors)

    if not feasible and not message:
        message = "no start reached the feasibility tolerance"
    if message:
        logger.warning("joint control infeasible: %s", message)

    return ControlSolution(
        b={key: float(best[n]) for key, n in problem.b_index.items()},
        c=c_out,
        z=float(z_val),
        m={key: float(m) for key, m in zip(problem.b_keys, problem.flows(best))},
        residual=float(residual),
        feasible=bool(feasible) and not message,
        start_index=start_idx,
        message=message,
    )


def targets(
    solution: ControlSolution, state: MacroState, mfd: CompletionModel
) -> dict[BKey, float]:
    """Boundary flow targets implied by the returned controls, via the macro
    transfer bookkeeping."""
    est = macrodyn.transfers(state, mfd, solution.b, solution.c)
    return dict(sorted(est.m_boundary.items()))
