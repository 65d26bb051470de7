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
its current link otherwise.  ``annotate_routes`` builds the candidate set
with that hyper-path annotation.  Both functions read the simulator's own
vehicle records, ``Simulator.vehicles``.
The per-region program picks route probabilities on each vehicle's simplex
so that the realized next-region proportions match the hyper-path split
targets while the predicted end-of-step link densities stay close to the
region mean.  With at most two candidates per vehicle the program is a
bounded-variable least squares problem, solved exactly.  Its constant part
counts every vehicle's last candidate (``Network.region_links`` gives the
region's links and lane areas), and it has one column per vehicle with two
candidates; only those vehicles get probabilities and draw a route.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Collection, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.optimize import lsq_linear

from .netmodel import Network, TravelTimes, next_region, shortest_paths_to


class CandidateRoute(NamedTuple):
    links: tuple[str, ...]
    next_region: str
    projected_link: str | None  # None: leaves the region this step
    # (ignored for densities)


class VehicleRoutes(NamedTuple):
    vid: int
    region: str
    dest_region: str
    routes: tuple[CandidateRoute, ...]  # the current route first; one: no choice


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


def annotate_routes(
    vehicles: Sequence,
    alternatives: Mapping[int, tuple[str, ...]],
    net: Network,
    heads: Collection[int],
) -> list[VehicleRoutes]:
    """The candidate set of each of ``vehicles`` (``Simulator.vehicles``
    records), in order: the current route first, then its entry in
    ``alternatives`` (``generate_routes``) if any.  Each candidate carries its
    upcoming region and projected end-of-step link: ``route[1]`` for a vehicle
    in ``heads`` (``Simulator.queue_heads()``), else ``route[0]``; None outside
    the vehicle's region (ignored in densities)."""
    region_of = net.region_of
    out: list[VehicleRoutes] = []
    for v in vehicles:
        region = region_of[v.route[0]]
        k = 1 if v.id in heads else 0
        links = (v.route, alternatives[v.id]) if v.id in alternatives else (v.route,)
        routes = tuple(
            CandidateRoute(r, next_region(r, net), r[k] if region_of[r[k]] == region else None)
            for r in links
        )
        out.append(VehicleRoutes(v.id, region, v.dest_region, routes))
    return out


def candidate_next_regions(
    routes: Sequence[VehicleRoutes],
) -> dict[tuple[str, str], list[frozenset[str]]]:
    """Per-OD candidate next-region sets, the input to the split bounds."""
    out: dict[tuple[str, str], list[frozenset[str]]] = {}
    for vr in routes:
        if vr.dest_region == vr.region:
            continue
        key = (vr.region, vr.dest_region)
        out.setdefault(key, []).append(
            frozenset(r.next_region for r in vr.routes)
        )
    return out


def solve_probabilities(
    routes: Sequence[VehicleRoutes],
    targets: Mapping[tuple[str, str, str], float],
    net: Network,
    region: str,
    accumulation: float,
    beta: float,
    adjacency: Mapping[str, tuple[str, ...]],
) -> RouteProbabilities:
    """Minimize beta * (proportion mismatch)^2 + (density spread)^2 over the
    route probabilities of ``routes``, the vehicles in ``region``, exactly.

    A vehicle has one or two candidates, so its probabilities are (1,) or
    (x, 1 - x).  The program is then min ||M x - c||^2 over x in [0, 1]^n,
    one column per two-candidate vehicle, solved by bounded-variable least
    squares.  At x = 0 every vehicle takes its last candidate, so the constant
    part of each row counts those candidates' hits.  ``phi`` holds the
    two-candidate vehicles only.  Raises ValueError for a vehicle with more
    than two candidates.
    """
    if not routes:
        raise ValueError(f"no vehicles to route in region {region}")
    for vr in routes:
        if len(vr.routes) > 2:
            raise ValueError(
                f"vehicle {vr.vid}: {len(vr.routes)} candidate routes, at most 2 supported"
            )

    od_counts = Counter(vr.dest_region for vr in routes if vr.dest_region != region)
    keys = [(region, h, j) for j in sorted(od_counts) for h in adjacency[region]]
    key_row = {key: k for k, key in enumerate(keys)}
    link_area = net.region_links[region]
    link_row = {l: len(keys) + k for k, l in enumerate(link_area)}
    d_bar = accumulation / sum(link_area.values())

    # At x = 0 every vehicle takes its last candidate.
    n_rows = len(keys) + len(link_area)
    base = np.zeros(n_rows)
    last_keys = Counter((vr.routes[-1].next_region, vr.dest_region) for vr in routes)
    last_links = Counter(vr.routes[-1].projected_link for vr in routes)
    for (_, h, j), row in key_row.items():
        base[row] = _running_sum(1.0 / od_counts[j], last_keys[(h, j)])
    for l, row in link_row.items():
        base[row] = _running_sum(1.0 / link_area[l], last_links[l])
    # one column per two-candidate vehicle: its first candidate's hits less
    # its last one's
    free = [vr for vr in routes if len(vr.routes) == 2]
    m_mat = np.zeros((n_rows, len(free)))
    for k, vr in enumerate(free):
        for sign, r in zip((1.0, -1.0), vr.routes):
            row = key_row.get((region, r.next_region, vr.dest_region))
            if row is not None:
                m_mat[row, k] += sign * (1.0 / od_counts[vr.dest_region])
            if r.projected_link in link_row:
                m_mat[link_row[r.projected_link], k] += sign * (1.0 / link_area[r.projected_link])
    goal = np.array([targets.get(key, 0.0) for key in keys] + [d_bar] * len(link_area))
    weight = np.array([math.sqrt(beta)] * len(keys) + [1.0] * len(link_area))
    x, iterations = np.zeros(0), 0
    if free:
        sol = lsq_linear(
            weight[:, None] * m_mat, weight * (goal - base), bounds=(0.0, 1.0), method="bvls"
        )
        x, iterations = sol.x, sol.nit

    value = base + m_mat @ x
    target_term = beta * float(np.sum((value[: len(keys)] - goal[: len(keys)]) ** 2))
    homog_term = float(np.sum((value[len(keys) :] - d_bar) ** 2))
    return RouteProbabilities(
        phi={vr.vid: np.array([xk, 1.0 - xk]) for vr, xk in zip(free, x)},
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
    ``routes`` holds vehicles with a choice, each with an entry in
    ``probabilities`` (``solve_probabilities``' phi); each draws once.

    Iteration is ordered by vehicle id, so a fixed seed reproduces the exact
    assignment."""
    chosen: dict[int, tuple[str, ...]] = {}
    for vr in sorted(routes, key=lambda r: r.vid):
        phi = np.clip(np.asarray(probabilities[vr.vid], dtype=float), 0.0, None)
        phi = phi / phi.sum()
        idx = int(rng.choice(len(vr.routes), p=phi))
        chosen[vr.vid] = vr.routes[idx].links
    return chosen
