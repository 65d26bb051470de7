"""Independent brute-force oracles used by unit and acceptance tests.

These re-derive expected values from first principles (dense grids,
exhaustive scans) and deliberately share no code with the solvers they
check.  ``step`` and ``targets`` replay the region dynamics and boundary
targets through the transfer bookkeeping below (``transfers``), which the
solvers do not call.  ``per_vehicle_candidates`` rebuilds what
``routectl.generate_routes`` shares across vehicles, one search and route
per vehicle.  ``forward_shortest_route`` is the reference shortest-path
search: a forward label-setting search from the origin, sharing no code with
``netmodel.shortest_paths_to``.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from msjc import routectl
from msjc.jointctl import BKey, TKey
from msjc.macrodyn import CompletionModel, MacroState
from msjc.mesosim import VehicleView
from msjc.netmodel import Network, next_region, route_from, shortest_paths_to

logger = logging.getLogger(__name__)


class FractionMfd:
    """Completion model releasing a fixed fraction of the accumulation per
    macro step, with explicit critical values."""

    def __init__(self, fraction: dict[str, float], crit: dict[str, float], t_macro: float = 100.0):
        self.fraction = dict(fraction)
        self.crit = dict(crit)
        self.t = t_macro

    def evaluate(self, region: str, n: float) -> float:
        return self.fraction[region] * n / self.t

    def critical(self, region: str) -> float:
        return self.crit[region]


def two_region_grid_search(state, mfd, bounds, resolution=1e-3, refine=False):
    """Objective of the joint program on a two-region instance by exhaustive
    search over (b_12, b_21) with the splits pinned at 1 (single neighbor).

    With ``refine``, two nested grid passes shrink the quantization error to
    ~1e-7 of a gating step.  Returns (z*, b12*, b21*, flows*)."""
    r1, r2 = state.regions
    n1, n2 = state.accumulation(r1), state.accumulation(r2)
    t = state.t_macro_s
    k12 = state.n.get((r1, r2), 0.0) / n1 * mfd.evaluate(r1, n1) * t
    k21 = state.n.get((r2, r1), 0.0) / n2 * mfd.evaluate(r2, n2) * t
    t2_1 = state.n.get((r1, r1), 0.0) / n1 * mfd.evaluate(r1, n1) * t
    t2_2 = state.n.get((r2, r2), 0.0) / n2 * mfd.evaluate(r2, n2) * t
    q1 = sum(v for (i, j), v in state.q.items() if i == r1)
    q2 = sum(v for (i, j), v in state.q.items() if i == r2)
    base1 = n1 + q1 - t2_1 - mfd.critical(r1)
    base2 = n2 + q2 - t2_2 - mfd.critical(r2)

    def scan(lo12, hi12, lo21, hi21, res):
        g12 = np.arange(lo12, hi12 + res / 2, res)
        g21 = np.arange(lo21, hi21 + res / 2, res)
        b12 = g12[:, None]
        b21 = g21[None, :]
        out12 = b12 * k12
        out21 = b21 * k21
        g1 = base1 - out12 + out21
        g2 = base2 - out21 + out12
        z = np.maximum(g1, g2)
        m12 = out12 / t
        m21 = out21 / t
        eps = 1e-12
        feasible = (
            (m12 >= bounds.m_min[(r1, r2)] - eps)
            & (m12 <= bounds.m_max[(r1, r2)] + eps)
            & (m21 >= bounds.m_min[(r2, r1)] - eps)
            & (m21 <= bounds.m_max[(r2, r1)] + eps)
        )
        z = np.where(feasible, z, np.inf)
        idx = np.unravel_index(np.argmin(z), z.shape)
        return float(z[idx]), float(g12[idx[0]]), float(g21[idx[1]])

    z_best, b12_best, b21_best = scan(0.0, 1.0, 0.0, 1.0, resolution)
    if refine:
        res = resolution
        for _ in range(3):
            lo12, hi12 = max(0.0, b12_best - 2 * res), min(1.0, b12_best + 2 * res)
            lo21, hi21 = max(0.0, b21_best - 2 * res), min(1.0, b21_best + 2 * res)
            res /= 100.0
            z_new, b12_new, b21_new = scan(lo12, hi12, lo21, hi21, res)
            if z_new < z_best:
                z_best, b12_best, b21_best = z_new, b12_new, b21_new
    return (
        z_best,
        b12_best,
        b21_best,
        {(r1, r2): b12_best * k12 / t, (r2, r1): b21_best * k21 / t},
    )


def route_choice_grid_search(objective, n_vars, resolution=1e-3):
    """Minimize a convex objective over [0,1]^n_vars by dense grid (each
    variable is a two-route split, phi = (x, 1-x))."""
    grid = np.arange(0.0, 1.0 + resolution / 2, resolution)
    if n_vars == 1:
        values = np.array([objective((x,)) for x in grid])
        k = int(np.argmin(values))
        return float(values[k]), (float(grid[k]),)
    if n_vars == 2:
        # full arrays, not broadcast views: objectives may add in place
        xs, ys = np.meshgrid(grid, grid, indexing="ij")
        values = objective((xs, ys))
        k = int(np.argmin(values))  # first minimum in row-major order
        return float(values.flat[k]), (float(xs.flat[k]), float(ys.flat[k]))
    raise ValueError("grid oracle supports at most two free vehicles")


@dataclass(frozen=True)
class TransferEstimate:
    type1: dict[tuple[str, str], float]  # released-at-boundary stock per (i, j)
    type2: dict[str, float]  # internal completions per region
    n_crossing: dict[TKey, float]  # veh transferred per (i, h, j)
    m_crossing: dict[TKey, float]  # veh/s per (i, h, j)
    m_boundary: dict[BKey, float]  # veh/s per ordered boundary


def completion_split(
    state: MacroState, mfd: CompletionModel
) -> tuple[dict[tuple[str, str], float], dict[str, float]]:
    """Split each region's completion flow into boundary-ready stock per
    destination (type I) and internal completions (type II), in vehicles per
    macro step.  Empty regions contribute zero."""
    type1: dict[tuple[str, str], float] = {}
    type2: dict[str, float] = {}
    for i in state.regions:
        n_i = state.accumulation(i)
        if n_i <= 0.0:
            type2[i] = 0.0
            for j in state.regions:
                if j != i:
                    type1[(i, j)] = 0.0
            continue
        total = mfd.evaluate(i, n_i) * state.t_macro_s
        type2[i] = state.n.get((i, i), 0.0) / n_i * total
        for j in state.regions:
            if j != i:
                type1[(i, j)] = state.n.get((i, j), 0.0) / n_i * total
    return type1, type2


def _check_controls(
    state: MacroState, b: Mapping[BKey, float], c: Mapping[TKey, float]
) -> None:
    for key, value in b.items():
        if not -1e-9 <= value <= 1.0 + 1e-9:
            raise ValueError(f"b{key} = {value} outside [0, 1]")
    sums: dict[tuple[str, str], float] = {}
    for (i, h, j), value in c.items():
        if value < -1e-9:
            raise ValueError(f"c{(i, h, j)} = {value} negative")
        sums[(i, j)] = sums.get((i, j), 0.0) + value
    for (i, j), total in sums.items():
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"sum_h c[{i},h,{j}] = {total} != 1")


def transfers(
    state: MacroState,
    mfd: CompletionModel,
    b: Mapping[BKey, float],
    c: Mapping[TKey, float],
) -> TransferEstimate:
    """Boundary transfers implied by controls (b, c) on the current state."""
    _check_controls(state, b, c)
    type1, type2 = completion_split(state, mfd)
    n_crossing: dict[TKey, float] = {}
    m_crossing: dict[TKey, float] = {}
    m_boundary: dict[BKey, float] = {}
    for i in state.regions:
        for h in state.adjacency[i]:
            m_boundary[(i, h)] = 0.0
            for j in state.regions:
                if j == i:
                    continue
                released = type1.get((i, j), 0.0)
                moved = b.get((i, h), 0.0) * c.get((i, h, j), 0.0) * released
                n_crossing[(i, h, j)] = moved
                m_crossing[(i, h, j)] = moved / state.t_macro_s
                m_boundary[(i, h)] += moved / state.t_macro_s
    return TransferEstimate(type1, type2, n_crossing, m_crossing, m_boundary)


def step(
    state: MacroState,
    mfd: CompletionModel,
    b: Mapping[BKey, float],
    c: Mapping[TKey, float],
    q: Mapping[tuple[str, str], float],
) -> MacroState:
    """One macro step of the region dynamics.

    Negative stocks (possible when the completion flow overdraws a bucket at
    a coarse step) are clamped at zero and logged.
    """
    est = transfers(state, mfd, b, c)
    new_n: dict[tuple[str, str], float] = {}
    clamped = 0
    for i in state.regions:
        for j in state.regions:
            value = state.n.get((i, j), 0.0) + q.get((i, j), 0.0)
            if i == j:
                value -= est.type2[i]
                for h in state.adjacency[i]:
                    value += est.n_crossing.get((h, i, i), 0.0)
            else:
                for h in state.adjacency[i]:
                    if h != j:
                        value += est.n_crossing.get((h, i, j), 0.0)
                    value -= est.n_crossing.get((i, h, j), 0.0)
            if value < 0.0:
                clamped += 1
                logger.debug("clamped N[%s,%s] = %.6g to 0", i, j, value)
                value = 0.0
            new_n[(i, j)] = value
    if clamped:
        logger.warning("macro step %d clamped %d negative stocks", state.t, clamped)
    return MacroState(
        t=state.t + 1,
        n=new_n,
        q={},
        t_macro_s=state.t_macro_s,
        regions=state.regions,
        adjacency=state.adjacency,
    )


def targets(solution, state: MacroState, mfd: CompletionModel) -> dict[BKey, float]:
    """Boundary flow targets implied by a solution's controls, via the macro
    transfer bookkeeping."""
    est = transfers(state, mfd, solution.b, solution.c)
    return dict(sorted(est.m_boundary.items()))


def per_vehicle_candidates(
    vehicles: Sequence[VehicleView],
    net: Network,
    travel_times: Mapping[str, float],
    dt_s: float,
) -> list[tuple[list[tuple], bool]]:
    """Candidate routes of each vehicle with nothing shared between vehicles:
    a fresh search and route per vehicle.  Per vehicle, returns
    ([(links, is_current, next_region, projected_link), ...], pinned)."""
    out = []
    for v in vehicles:
        candidates = [v.route]
        unreachable = False
        if len(v.route) > 2:
            nxt_choice = shortest_paths_to(net, v.destination, travel_times, (v.link,))
            best = route_from(v.link, v.destination, nxt_choice)
            unreachable = best is None
            if best is not None and best != v.route:
                candidates.append(best)
        annotated = [
            (r, r == v.route, next_region(r, net), routectl._projected_link(v, r, net, dt_s))
            for r in candidates
        ]
        out.append((annotated, unreachable or len(candidates) == 1))
    return out


def forward_shortest_route(
    net: Network, origin: str, destination: str, travel_times: Mapping[str, float]
) -> tuple[str, ...] | None:
    """Minimum-travel-time link route from origin to destination
    (label-setting over the link graph; the first parent found wins a tie,
    unlike ``netmodel.shortest_paths_to``, so compare on tie-free times)."""
    dist = {origin: 0.0}
    parent: dict[str, str] = {}
    heap: list[tuple[float, str]] = [(0.0, origin)]
    while heap:
        d, link = heapq.heappop(heap)
        if link == destination:
            route = [link]
            while link in parent:
                link = parent[link]
                route.append(link)
            return tuple(reversed(route))
        if d > dist.get(link, math.inf):
            continue
        for nxt in net.successors(link):
            nd = d + travel_times[nxt]
            if nd < dist.get(nxt, math.inf) - 1e-12:
                dist[nxt] = nd
                parent[nxt] = link
                heapq.heappush(heap, (nd, nxt))
    return None
