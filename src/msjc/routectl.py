"""Alternative routes for rerouting and the intra-region route-choice program.

``generate_routes`` maps each vehicle that has a choice to its one
alternative: the instantaneously shortest route, when it differs from the
current one (for a queued vehicle, only if its lane serves that route's next
link; never within one link of the destination).  The shortest routes come
from the step's travel-time snapshot (``Simulator.travel_time_estimates``):
its search per destination (``netmodel.shortest_paths_to``) is the one demand
injection extends in the same step for a route that meets a queue.  Every
vehicle with the same start link and destination gets one route, the one a
vehicle injected there in the same step got.  Logit rerouting reads only
that map.  msjc's programs also need each candidate's upcoming region and the
link the vehicle is projected to sit on at the end of the step: the route's
next link for a vehicle the step may discharge (``Simulator.queue_heads``),
its current link otherwise.  ``route_tables`` makes one pass over the
vehicles it is given, in id order: every vehicle of the regions a caller
needs (all of them for the joint program, else only those where a vehicle
has a choice).  Per region it counts each of those vehicles by its last
candidate (its alternative if it has one, else its current route): per
destination region, per (next region, destination) and per projected link.
Only a vehicle with an alternative gets its candidate set
(``VehicleRoutes``).  Both functions read the simulator's own vehicle
records, ``Simulator.vehicles``.
The per-region program picks route probabilities on each vehicle's simplex
so that the realized next-region proportions match the hyper-path split
targets while the predicted end-of-step link densities stay close to the
region mean.  With at most two candidates per vehicle the program is a
bounded-variable least squares problem, solved exactly.  Its constant part
comes from the region's counts (``Network.region_links`` gives the region's
links and lane areas), and it has one column per vehicle with a choice; only
those vehicles get probabilities and draw a route, and a region without one
has nothing to build or solve.  ``explain_routes`` computes a solve's
``routing.csv`` terms from the program the solve built, for the logs alone.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Collection, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.optimize import lsq_linear

from .netmodel import Network, TravelTimes, next_region, shortest_paths_to

_CHOICE_ATOL = math.sqrt(np.finfo(float).eps)  # Generator.choice's tolerance on sum(p)


class CandidateRoute(NamedTuple):
    links: tuple[str, ...]
    next_region: str
    projected_link: str | None  # None: leaves the region (ignored for densities)


class VehicleRoutes(NamedTuple):
    vid: int
    region: str
    dest_region: str
    routes: tuple[CandidateRoute, ...]  # the current route, then the alternative


class RouteCounts(NamedTuple):
    """One region's vehicles counted by their last candidate (their only
    one without a choice)."""

    destinations: Counter[str]  # vehicles per destination region
    next_keys: Counter[tuple[str, str]]  # per (next region, destination)
    links: Counter[str | None]  # per projected link


class RouteTables(NamedTuple):
    """The step's route guidance input (``route_tables``): per region, its
    vehicles with a choice in id order and its counts."""

    choices: dict[str, list[VehicleRoutes]]
    counts: dict[str, RouteCounts]


# keys, base, goal and m_mat of one region's program, as ``_program`` builds them
RouteProgram = tuple[list[tuple[str, str, str]], np.ndarray, np.ndarray, np.ndarray]


class RouteProbabilities(NamedTuple):
    phi: dict[int, tuple[float, float]]  # (x, 1 - x) per choice vehicle, in id order
    iterations: int
    program: RouteProgram | None  # the one solved; None without a choice


def generate_routes(
    vehicles: Collection,
    net: Network,
    travel_times: TravelTimes,
) -> dict[int, tuple[str, ...]]:
    """Vehicle id -> shortest route, for each vehicle whose shortest route
    differs from its current one.  ``vehicles`` holds ``Simulator.vehicles``
    records (``route[0]`` is the current link).

    One call per destination to ``shortest_paths_to`` on ``travel_times``
    gives one shortest route per start link and destination.  Vehicles on
    their destination link or one link away have no alternative (no routing
    freedom).  A queued vehicle has one only when its lane serves the
    shortest route's next link.
    """
    free = [v for v in vehicles if len(v.route) > 2]
    starts: dict[str, set[str]] = {}
    for v in free:
        starts.setdefault(v.destination, set()).add(v.route[0])
    # a vehicle's current route proves its destination reachable
    shortest = {
        (link, destination): route
        for destination, links in starts.items()
        for link, route in shortest_paths_to(travel_times, destination, links).items()
    }
    alternatives: dict[int, tuple[str, ...]] = {}
    for v in free:
        best = shortest[(v.route[0], v.destination)]
        if best != v.route and (v.lane is None or v.lane in net.lanes_to[best[:2]]):
            alternatives[v.id] = best
    return alternatives


def route_tables(
    vehicles: Sequence,
    alternatives: Mapping[int, tuple[str, ...]],
    net: Network,
    heads: Collection[int],
) -> RouteTables:
    """One pass over ``vehicles`` (``Simulator.vehicles`` records, in id
    order) and their ``alternatives`` (``generate_routes``).  A vehicle's
    candidates are its current route, then its alternative if any, each with
    its upcoming region and projected end-of-step link: ``route[1]`` for a
    vehicle in ``heads`` (``Simulator.queue_heads()``), else ``route[0]``;
    None outside the vehicle's region.  Every vehicle given is counted, so a
    region's counts are complete when all its vehicles are given; only one
    with an alternative gets a ``VehicleRoutes``."""
    region_of = net.region_of
    rows: dict[str, list[tuple[str, str, str | None]]] = {}
    choices: dict[str, list[VehicleRoutes]] = {}
    for v in vehicles:
        route, dest = v.route, v.dest_region
        region = region_of[route[0]]
        k = 1 if v.id in heads else 0
        alternative = alternatives.get(v.id)
        last = route if alternative is None else alternative
        h = next_region(last, net)
        link = last[k] if region_of[last[k]] == region else None
        rows.setdefault(region, []).append((dest, h, link))
        if alternative is not None:
            h0 = next_region(route, net)
            current = CandidateRoute(route, h0, route[k] if region_of[route[k]] == region else None)
            routes = (current, CandidateRoute(alternative, h, link))
            choices.setdefault(region, []).append(VehicleRoutes(v.id, region, dest, routes))
    counts = {}
    for region, region_rows in rows.items():
        dests, nexts, links = zip(*region_rows)
        counts[region] = RouteCounts(Counter(dests), Counter(zip(nexts, dests)), Counter(links))
    return RouteTables(choices, counts)


def solve_probabilities(
    choices: Sequence[VehicleRoutes],
    counts: RouteCounts,
    targets: Mapping[tuple[str, str, str], float],
    net: Network,
    region: str,
    accumulation: float,
    beta: float,
    adjacency: Mapping[str, tuple[str, ...]],
) -> RouteProbabilities:
    """Minimize beta * (proportion mismatch)^2 + (density spread)^2 over the
    route probabilities of the vehicles in ``region``, exactly.

    ``counts`` covers every vehicle in the region by its last candidate;
    ``choices`` are those with two candidates, in id order, with route
    probabilities (x, 1 - x).  The program is then min ||M x - c||^2 over x
    in [0, 1]^n, one column per choice vehicle.  As in ``lsq_linear``, the
    unconstrained solution stands when it is in the box (0 iterations), and
    BVLS solves it otherwise; with no choice there is nothing to solve.
    Raises ValueError for a choice vehicle without exactly two candidates.
    """
    if not choices:
        return RouteProbabilities({}, 0, None)
    program = _program(choices, counts, targets, net, region, accumulation, adjacency)
    keys, base, goal, m_mat = program
    weight = np.array([math.sqrt(beta)] * len(keys) + [1.0] * (len(base) - len(keys)))
    a, b = weight[:, None] * m_mat, weight * (goal - base)
    x, iterations = np.linalg.lstsq(a, b, rcond=-1)[0], 0
    if not np.all((x >= 0.0) & (x <= 1.0)):
        sol = lsq_linear(a, b, bounds=(0.0, 1.0), method="bvls")
        x, iterations = sol.x, sol.nit
    phi = {vr.vid: (xk, 1.0 - xk) for vr, xk in zip(choices, x.tolist())}
    return RouteProbabilities(phi, iterations, program)


def explain_routes(
    probs: RouteProbabilities, beta: float
) -> tuple[dict[tuple[str, str, str], float], float, float]:
    """The realized split per key, the target term and the homogeneity term
    of ``probs``, a decision of ``solve_probabilities`` with a choice and
    weight ``beta``, at its x on the program it solved."""
    keys, base, goal, m_mat = probs.program
    value = base + m_mat @ np.array([p for p, _ in probs.phi.values()])
    gap, n = value - goal, len(keys)
    realized = {key: float(v) for key, v in zip(keys, value)}
    return realized, beta * float(np.sum(gap[:n] ** 2)), float(np.sum(gap[n:] ** 2))


def _program(
    choices: Sequence[VehicleRoutes],
    counts: RouteCounts,
    targets: Mapping[tuple[str, str, str], float],
    net: Network,
    region: str,
    accumulation: float,
    adjacency: Mapping[str, tuple[str, ...]],
) -> RouteProgram:
    """``region``'s program: its split keys; per row (the keys', then its
    links') the value at x = 0, where each vehicle takes its last candidate,
    and the goal; and one column per vehicle of ``choices``."""
    od_counts = {j: n for j, n in counts.destinations.items() if j != region}
    keys = [(region, h, j) for j in sorted(od_counts) for h in adjacency[region]]
    link_area = net.region_links[region]
    d_bar = accumulation / sum(link_area.values())
    base = [_running_sum(1.0 / od_counts[j], counts.next_keys[(h, j)]) for _, h, j in keys]
    base += [_running_sum(1.0 / area, counts.links[l]) for l, area in link_area.items()]
    goal = np.array([targets.get(key, 0.0) for key in keys] + [d_bar] * len(link_area))
    key_row = {key: k for k, key in enumerate(keys)}
    link_row = {l: len(keys) + k for k, l in enumerate(link_area)}
    m_mat = np.zeros((len(base), len(choices)))
    for k, vr in enumerate(choices):
        if len(vr.routes) != 2:
            raise ValueError(f"vehicle {vr.vid}: {len(vr.routes)} candidate routes, not 2")
        for sign, r in zip((1.0, -1.0), vr.routes):  # first candidate's hits less last's
            row = key_row.get((region, r.next_region, vr.dest_region))
            if row is not None:
                m_mat[row, k] += sign * (1.0 / od_counts[vr.dest_region])
            if r.projected_link in link_row:
                m_mat[link_row[r.projected_link], k] += sign * (1.0 / link_area[r.projected_link])
    return keys, np.array(base), goal, m_mat


def _running_sum(value: float, count: int) -> float:
    """``value`` added ``count`` times in sequence: the bits of a running sum
    over the vehicles, which ``count * value`` need not match."""
    total = 0.0
    for _ in range(count):
        total += value
    return total


def assign_routes(
    routes: Sequence[VehicleRoutes],
    probabilities: Mapping[int, Sequence[float]],
    rng: np.random.Generator,
) -> dict[int, tuple[str, ...]]:
    """Sample one committed route per vehicle from its probabilities.
    ``routes`` holds vehicles with a choice of two, each with an entry in
    ``probabilities`` (``solve_probabilities``' phi); each draws once.

    Iteration is ordered by vehicle id, so a fixed seed reproduces the exact
    assignment."""
    chosen: dict[int, tuple[str, ...]] = {}
    for vr in sorted(routes, key=lambda r: r.vid):
        p0, p1 = (max(p, 0.0) for p in probabilities[vr.vid])  # clipped; NaN stays NaN
        total = p0 + p1
        chosen[vr.vid] = vr.routes[draw_two((p0 / total, p1 / total), rng)].links
    return chosen


def draw_two(p: Sequence[float], rng: np.random.Generator) -> int:
    """``int(rng.choice(2, p=p))`` without its overhead: the same checks, and
    the same index from one ``rng.random()`` against cumsum(p) / its last."""
    p0, p1 = map(float, p)
    if not (p0 >= 0.0 and p1 >= 0.0 and abs(p0 + p1 - 1.0) <= _CHOICE_ATOL):
        raise ValueError(f"probabilities ({p0}, {p1}) are not non-negative or do not sum to 1")
    return int(rng.random() >= p0 / (p0 + p1))
