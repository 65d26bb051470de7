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
link the vehicle is projected to sit on at the end of the step;
``annotate_routes`` builds the candidate set with that hyper-path annotation.
The per-region program picks route probabilities on each vehicle's simplex
so that the realized next-region proportions match the hyper-path split
targets while the predicted end-of-step link densities stay close to the
region mean.  With at most two candidates per vehicle the program is a
bounded-variable least squares problem, solved exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Collection, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.optimize import lsq_linear

from .mesosim import VehicleView
from .netmodel import Network, TravelTimes, next_region, shortest_paths_to


class CandidateRoute(NamedTuple):
    links: tuple[str, ...]
    is_current: bool
    next_region: str
    projected_link: str | None  # None: leaves the region this step
    # (ignored for densities)


class VehicleRoutes(NamedTuple):
    vid: int
    region: str
    dest_region: str
    routes: tuple[CandidateRoute, ...]
    pinned: bool


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
    differs from its current one.  ``vehicles`` holds records with ``id``,
    ``route`` (``route[0]`` is the current link), ``destination`` and
    ``lane``: ``VehicleView``s or ``Simulator.vehicles.values()``.

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
    vehicles: Sequence[VehicleView],
    alternatives: Mapping[int, tuple[str, ...]],
    net: Network,
    dt_s: float,
) -> list[VehicleRoutes]:
    """The candidate set of each of ``vehicles``, in order: the current route
    first, then the vehicle's entry in ``alternatives`` (see
    ``generate_routes``) if it has one.  Each candidate carries its upcoming
    region and projected end-of-step link: the inputs of
    ``candidate_next_regions`` and ``solve_probabilities``."""
    out: list[VehicleRoutes] = []
    for v in vehicles:
        links = (v.route, alternatives[v.id]) if v.id in alternatives else (v.route,)
        routes = tuple(
            CandidateRoute(r, k == 0, next_region(r, net), _projected_link(v, r, net, dt_s))
            for k, r in enumerate(links)
        )
        out.append(VehicleRoutes(v.id, v.region, v.dest_region, routes, len(routes) == 1))
    return out


def _projected_link(
    v: VehicleView, route: tuple[str, ...], net: Network, dt_s: float
) -> str | None:
    """Link where the vehicle is expected to sit at the end of the step:
    queued vehicles within this step's service budget advance to the route's
    next link, everyone else stays put.  Links outside the vehicle's current
    region are reported as None (ignored in densities)."""
    link = v.link
    if v.lane is not None:
        budget = net.lanes[v.lane].sat_flow_veh_s * dt_s
        if (v.queue_index or 0) < budget:
            link = route[1]
    if net.region_of[link] != v.region:
        return None
    return link


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
    route probabilities of the region's vehicles, exactly.

    A vehicle has one or two candidates, so its probabilities are (1,) or
    (x, 1 - x).  The program is then min ||M x - c||^2 over x in [0, 1]^n,
    one column per two-candidate vehicle, solved by bounded-variable least
    squares.  Raises ValueError for a vehicle with more than two candidates.
    """
    in_region = [vr for vr in routes if vr.region == region]
    if not in_region:
        raise ValueError(f"no vehicles to route in region {region}")
    for vr in in_region:
        if len(vr.routes) > 2:
            raise ValueError(
                f"vehicle {vr.vid}: {len(vr.routes)} candidate routes, at most 2 supported"
            )

    od_counts = Counter(vr.dest_region for vr in in_region if vr.dest_region != region)
    keys = [(region, h, j) for j in sorted(od_counts) for h in adjacency[region]]
    key_row = {key: k for k, key in enumerate(keys)}
    region_links = sorted(l.id for l in net.links.values() if l.region == region)
    link_row = {l: len(keys) + k for k, l in enumerate(region_links)}
    area = {l: net.links[l].lane_count * net.links[l].length_m for l in region_links}
    d_bar = accumulation / sum(area.values())

    def column(vr: VehicleRoutes, r: CandidateRoute) -> np.ndarray:
        """Realized proportions and link densities of one vehicle certainly
        on route ``r``."""
        col = np.zeros(len(keys) + len(region_links))
        row = key_row.get((region, r.next_region, vr.dest_region))
        if row is not None:
            col[row] = 1.0 / od_counts[vr.dest_region]
        if r.projected_link in link_row:
            col[link_row[r.projected_link]] = 1.0 / area[r.projected_link]
        return col

    # At x = 0 every vehicle takes its last candidate.
    free = [vr for vr in in_region if len(vr.routes) == 2]
    base = sum(column(vr, vr.routes[-1]) for vr in in_region)
    m_mat = np.zeros((len(base), len(free)))
    for k, vr in enumerate(free):
        m_mat[:, k] = column(vr, vr.routes[0]) - column(vr, vr.routes[1])
    goal = np.array([targets.get(key, 0.0) for key in keys] + [d_bar] * len(region_links))
    weight = np.array([math.sqrt(beta)] * len(keys) + [1.0] * len(region_links))
    x, iterations = np.zeros(0), 0
    if free:
        sol = lsq_linear(
            weight[:, None] * m_mat, weight * (goal - base), bounds=(0.0, 1.0), method="bvls"
        )
        x, iterations = sol.x, sol.nit

    phi = {vr.vid: np.ones(1) for vr in in_region}
    for vr, xk in zip(free, x):
        phi[vr.vid] = np.array([xk, 1.0 - xk])
    value = base + m_mat @ x
    target_term = beta * float(np.sum((value[: len(keys)] - goal[: len(keys)]) ** 2))
    homog_term = float(np.sum((value[len(keys) :] - d_bar) ** 2))
    return RouteProbabilities(
        phi=phi,
        target_term=target_term,
        homogeneity_term=homog_term,
        realized={key: float(v) for key, v in zip(keys, value)},
        iterations=iterations,
    )


def assign_routes(
    routes: Sequence[VehicleRoutes],
    probabilities: Mapping[int, np.ndarray],
    rng: np.random.Generator,
) -> dict[int, tuple[str, ...]]:
    """Sample one committed route per vehicle from its probabilities.

    Iteration is ordered by vehicle id, so a fixed seed reproduces the exact
    assignment."""
    chosen: dict[int, tuple[str, ...]] = {}
    for vr in sorted(routes, key=lambda r: r.vid):
        phi = np.asarray(probabilities[vr.vid], dtype=float)
        if len(vr.routes) == 1:
            chosen[vr.vid] = vr.routes[0].links
            continue
        phi = np.clip(phi, 0.0, None)
        phi = phi / phi.sum()
        idx = int(rng.choice(len(vr.routes), p=phi))
        chosen[vr.vid] = vr.routes[idx].links
    return chosen
