"""Alternative routes for rerouting and the intra-region route-choice program.

``generate_routes`` maps each vehicle that has a choice to its one
alternative: the instantaneously shortest route, when it differs from the
current one (for a queued vehicle, only if its lane serves that route's next
link; never within one link of the destination).  The shortest routes come
from the step's travel-time snapshot (``Simulator.travel_time_estimates``):
its search per destination (``netmodel.shortest_paths_to``) is the one demand
injection started in the same step, so rerouting only extends it.  Every
vehicle with the same start link and destination gets one route, the one a
vehicle injected there in the same step got.  Logit rerouting reads only
that map.  msjc's programs also need each candidate's upcoming region and the
link the vehicle is projected to sit on at the end of the step: the route's
next link for a vehicle the step may discharge (``Simulator.queue_heads``),
its current link otherwise.  ``route_tables`` makes one pass over the
vehicles in id order.  Per region it counts every vehicle by its last
candidate (its alternative if it has one, else its current route): per
destination region, per (next region, destination) and per projected link.
Per OD it counts the vehicles by candidate next-region set, the input to
the split bounds (``jointctl.route_bounds``).  Only a vehicle with an
alternative gets its candidate set (``VehicleRoutes``).  Both functions read
the simulator's own vehicle records, ``Simulator.vehicles``.
The per-region program picks route probabilities on each vehicle's simplex
so that the realized next-region proportions match the hyper-path split
targets while the predicted end-of-step link densities stay close to the
region mean.  With at most two candidates per vehicle the program is a
bounded-variable least squares problem, solved exactly.  Its constant part
comes from the region's counts (``Network.region_links`` gives the region's
links and lane areas), and it has one column per vehicle with a choice; only
those vehicles get probabilities and draw a route, and a region without one
has nothing to solve.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
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
    vehicles with a choice in id order and its counts; and the vehicles per
    (region, destination outside it, candidate next-region set)."""

    choices: dict[str, list[VehicleRoutes]]
    counts: dict[str, RouteCounts]
    next_sets: Counter[tuple[str, str, frozenset[str]]]


@dataclass
class RouteProbabilities:
    phi: dict[int, np.ndarray]
    target_term: float
    homogeneity_term: float
    realized: dict[tuple[str, str, str], float]
    iterations: int


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
    None outside the vehicle's region.  Every vehicle is counted; only one
    with an alternative gets a ``VehicleRoutes``."""
    region_of = net.region_of
    rows: dict[str, list[tuple[str, str, str | None]]] = {}
    choices: dict[str, list[VehicleRoutes]] = {}
    next_sets: list[tuple[str, str, frozenset[str]]] = []
    for v in vehicles:
        route, dest = v.route, v.dest_region
        region = region_of[route[0]]
        k = 1 if v.id in heads else 0
        alternative = alternatives.get(v.id)
        last = route if alternative is None else alternative
        h = next_region(last, net)
        link = last[k] if region_of[last[k]] == region else None
        rows.setdefault(region, []).append((dest, h, link))
        hs = (h,)
        if alternative is not None:
            h0 = next_region(route, net)
            current = CandidateRoute(route, h0, route[k] if region_of[route[k]] == region else None)
            routes = (current, CandidateRoute(alternative, h, link))
            choices.setdefault(region, []).append(VehicleRoutes(v.id, region, dest, routes))
            hs = (h0, h)
        if dest != region:
            next_sets.append((region, dest, frozenset(hs)))
    counts = {}
    for region, region_rows in rows.items():
        dests, nexts, links = zip(*region_rows)
        counts[region] = RouteCounts(Counter(dests), Counter(zip(nexts, dests)), Counter(links))
    return RouteTables(choices, counts, Counter(next_sets))


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
    in [0, 1]^n, one column per choice vehicle, solved by bounded-variable
    least squares; at x = 0 every vehicle takes its last candidate, so the
    counts give each row's constant part.  ``phi`` holds the choice vehicles
    only; with none there is nothing to solve.  Raises ValueError for a
    choice vehicle without exactly two candidates.
    """
    for vr in choices:
        if len(vr.routes) != 2:
            raise ValueError(f"vehicle {vr.vid}: {len(vr.routes)} candidate routes, not 2")

    od_counts = {j: n for j, n in counts.destinations.items() if j != region}
    keys = [(region, h, j) for j in sorted(od_counts) for h in adjacency[region]]
    link_area = net.region_links[region]
    d_bar = accumulation / sum(link_area.values())

    # At x = 0 every vehicle takes its last candidate.
    base = [_running_sum(1.0 / od_counts[j], counts.next_keys[(h, j)]) for _, h, j in keys]
    base += [_running_sum(1.0 / area, counts.links[l]) for l, area in link_area.items()]
    goal = np.array([targets.get(key, 0.0) for key in keys] + [d_bar] * len(link_area))
    x, iterations, value = (), 0, np.array(base)
    if choices:
        key_row = {key: k for k, key in enumerate(keys)}
        link_row = {l: len(keys) + k for k, l in enumerate(link_area)}
        # one column per choice vehicle: its first candidate's hits less its last's
        m_mat = np.zeros((len(base), len(choices)))
        for k, vr in enumerate(choices):
            for sign, r in zip((1.0, -1.0), vr.routes):
                row = key_row.get((region, r.next_region, vr.dest_region))
                if row is not None:
                    m_mat[row, k] += sign * (1.0 / od_counts[vr.dest_region])
                link = r.projected_link
                if link in link_row:
                    m_mat[link_row[link], k] += sign * (1.0 / link_area[link])
        weight = np.array([math.sqrt(beta)] * len(keys) + [1.0] * len(link_area))
        sol = lsq_linear(
            weight[:, None] * m_mat, weight * (goal - value), bounds=(0.0, 1.0), method="bvls"
        )
        x, iterations = sol.x, sol.nit
        value = value + m_mat @ x

    target_term = beta * float(np.sum((value[: len(keys)] - goal[: len(keys)]) ** 2))
    homog_term = float(np.sum((value[len(keys) :] - d_bar) ** 2))
    return RouteProbabilities(
        phi={vr.vid: np.array([xk, 1.0 - xk]) for vr, xk in zip(choices, x)},
        target_term=target_term,
        homogeneity_term=homog_term,
        realized={key: float(v) for key, v in zip(keys, value)},
        iterations=iterations,
    )


def _running_sum(value: float, count: int) -> float:
    """``value`` added ``count`` times in sequence: the bits of a running sum
    over the vehicles, which ``count * value`` need not match."""
    total = 0.0
    for _ in range(count):
        total += value
    return total


def assign_routes(
    routes: Sequence[VehicleRoutes],
    probabilities: Mapping[int, np.ndarray],
    rng: np.random.Generator,
) -> dict[int, tuple[str, ...]]:
    """Sample one committed route per vehicle from its probabilities.
    ``routes`` holds vehicles with a choice of two, each with an entry in
    ``probabilities`` (``solve_probabilities``' phi); each draws once.

    Iteration is ordered by vehicle id, so a fixed seed reproduces the exact
    assignment."""
    chosen: dict[int, tuple[str, ...]] = {}
    for vr in sorted(routes, key=lambda r: r.vid):
        phi = np.clip(np.asarray(probabilities[vr.vid], dtype=float), 0.0, None)
        chosen[vr.vid] = vr.routes[draw_two(phi / phi.sum(), rng)].links
    return chosen


def draw_two(p: Sequence[float], rng: np.random.Generator) -> int:
    """``int(rng.choice(2, p=p))`` without its overhead: the same checks, and
    the same index from one ``rng.random()`` against cumsum(p) / its last."""
    p0, p1 = map(float, p)
    if not (p0 >= 0.0 and p1 >= 0.0 and abs(p0 + p1 - 1.0) <= _CHOICE_ATOL):
        raise ValueError(f"probabilities ({p0}, {p1}) are not non-negative or do not sum to 1")
    return int(rng.random() >= p0 / (p0 + p1))
