"""Static road network, region partition, demand profile and control settings.

A scenario is a YAML document with sections ``regions``, ``links``,
``lanes`` (optional overrides), ``intersections``, ``plans``, ``demand``,
``control``, an optional ``mfd`` block written by calibration and an optional
free-form ``meta`` block whose ``name`` names the scenario.  Every section
but ``meta`` rejects a key it does not define, naming the key.  All rates are
veh/s, lengths meters, times seconds.  Identifiers are strings.

Everything loaded here is immutable after validation and safe to share
across threads.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass, fields, replace
from collections.abc import Iterable, Mapping, Sequence

import yaml

logger = logging.getLogger(__name__)

GATING = "gating"
NON_GATING = "non_gating"
INTERIOR = "interior"


class ScenarioError(ValueError):
    """A scenario file failed to parse or violated a structural invariant."""


@dataclass(frozen=True)
class Lane:
    id: str
    link: str
    sat_flow_veh_s: float
    capacity_veh: int
    output_lanes: tuple[str, ...]


@dataclass(frozen=True)
class Link:
    id: str
    from_node: str
    to_node: str
    length_m: float
    lane_count: int
    region: str
    lanes: tuple[str, ...]
    free_speed_mps: float = 10.0

    @property
    def travel_time_s(self) -> float:
        return self.length_m / self.free_speed_mps


@dataclass(frozen=True)
class Phase:
    id: str
    allowed_lanes: frozenset[str]


@dataclass(frozen=True)
class Intersection:
    id: str
    kind: str
    phases: tuple[Phase, ...] = ()
    boundary: tuple[str, str] | None = None

    def phase(self, phase_id: str) -> Phase:
        for p in self.phases:
            if p.id == phase_id:
                return p
        raise KeyError(f"intersection {self.id} has no phase {phase_id}")


@dataclass(frozen=True)
class MultiPhasePlan:
    id: str
    boundary: tuple[str, str]
    phase_by_intersection: tuple[tuple[str, str], ...]  # (intersection, phase)

    def phase_of(self, intersection: str) -> str:
        for node, phase in self.phase_by_intersection:
            if node == intersection:
                return phase
        raise KeyError(f"plan {self.id} covers no intersection {intersection}")


@dataclass(frozen=True)
class RegionPartition:
    regions: tuple[str, ...]
    adjacency: dict[str, tuple[str, ...]]
    link_region: dict[str, str]

    def ordered_boundaries(self) -> list[tuple[str, str]]:
        return [(i, h) for i in self.regions for h in self.adjacency[i]]

    def boundary_keys(self) -> list[tuple[str, str]]:
        keys = {boundary_key(i, h) for i, h in self.ordered_boundaries()}
        return sorted(keys)


@dataclass(frozen=True)
class OdFlow:
    origin: str
    destination: str
    profile: tuple[tuple[float, float], ...]  # (start_s, rate veh/s), step function

    def rate_at(self, t: float) -> float:
        rate = 0.0
        for start, value in self.profile:
            if t >= start:
                rate = value
            else:
                break
        return rate


@dataclass(frozen=True)
class DemandScenario:
    horizon_s: float
    warmup_s: float
    seed: int
    od: tuple[OdFlow, ...]


@dataclass(frozen=True)
class ControlConfig:
    t_macro_s: float = 100.0
    t_micro_s: float = 10.0
    sigma: float = 0.1
    sigma_abs_veh_s: float = 0.05
    activation_threshold: float = 0.3
    route_beta: float = 10.0
    logit_theta: float = 0.01
    pi_kp: float = 0.05
    pi_ki: float = 0.01
    cap_factor: float = 4.0

    @property
    def steps_per_macro(self) -> int:
        return int(round(self.t_macro_s / self.t_micro_s))


def boundary_key(i: str, h: str) -> tuple[str, str]:
    """Canonical (unordered) key for the boundary between two regions."""
    return (i, h) if i <= h else (h, i)


class Network:
    """Immutable road network with derived connectivity indexes."""

    def __init__(
        self,
        links: Mapping[str, Link],
        lanes: Mapping[str, Lane],
        intersections: Mapping[str, Intersection],
        plans: Mapping[tuple[str, str], tuple[MultiPhasePlan, ...]],
    ):
        self.links = dict(sorted(links.items()))
        self.lanes = dict(sorted(lanes.items()))
        self.intersections = dict(sorted(intersections.items()))
        self.plans = {k: tuple(v) for k, v in sorted(plans.items())}

        # Link successors via lane wiring (prunes movements the lanes forbid),
        # the lanes serving each (link, next link) move, link storage, and per
        # link the constant terms of a travel-time estimate: id, free-flow
        # time, lanes and summed lane saturation flow.
        self._succ: dict[str, tuple[str, ...]] = {}
        self.lanes_to: dict[tuple[str, str], tuple[str, ...]] = {}
        self.storage: dict[str, int] = {}
        travel_time_terms = []
        for link in self.links.values():
            moves: dict[str, list[str]] = {}
            service = 0.0
            storage = 0
            for lane_id in link.lanes:
                lane = self.lanes[lane_id]
                service += lane.sat_flow_veh_s
                storage += lane.capacity_veh
                for nxt in {self.lanes[out].link for out in lane.output_lanes}:
                    moves.setdefault(nxt, []).append(lane_id)
            self._succ[link.id] = tuple(sorted(moves))
            for nxt, lanes in moves.items():
                self.lanes_to[(link.id, nxt)] = tuple(lanes)
            self.storage[link.id] = storage
            travel_time_terms.append((link.id, link.travel_time_s, link.lanes, service))
        self.travel_time_terms = tuple(travel_time_terms)
        preds: dict[str, list[str]] = {l: [] for l in self.links}
        for link_id, nxt in self._succ.items():
            for out in nxt:
                preds[out].append(link_id)
        self._pred = {l: tuple(p) for l, p in preds.items()}

        # L^p_{i,h}: for each plan and ordered boundary direction, the approach
        # lanes the plan serves whose movement crosses that direction.
        self._plan_crossing: dict[tuple[str, str, str, str], tuple[str, ...]] = {}
        for key, plan_list in self.plans.items():
            for plan in plan_list:
                for (i, h) in (key, (key[1], key[0])):
                    crossing: list[str] = []
                    for node_id, phase_id in plan.phase_by_intersection:
                        phase = self.intersections[node_id].phase(phase_id)
                        for lane_id in sorted(phase.allowed_lanes):
                            if self._lane_crosses(lane_id, i, h):
                                crossing.append(lane_id)
                    self._plan_crossing[(plan.id, key[0], key[1], i)] = tuple(crossing)

    def _lane_crosses(self, lane_id: str, i: str, h: str) -> bool:
        lane = self.lanes[lane_id]
        if self.links[lane.link].region != i:
            return False
        return any(
            self.links[self.lanes[out].link].region == h for out in lane.output_lanes
        )

    def successors(self, link_id: str) -> tuple[str, ...]:
        return self._succ[link_id]

    def predecessors(self, link_id: str) -> tuple[str, ...]:
        return self._pred[link_id]

    def plan_set(self, i: str, h: str) -> tuple[MultiPhasePlan, ...]:
        return self.plans[boundary_key(i, h)]

    def crossing_lanes(self, plan: MultiPhasePlan, i: str, h: str) -> tuple[str, ...]:
        key = boundary_key(i, h)
        return self._plan_crossing[(plan.id, key[0], key[1], i)]

    def link_region(self, link_id: str) -> str:
        return self.links[link_id].region


@dataclass(frozen=True)
class MfdParams:
    """Per-region cubic completion-flow coefficients and critical accumulation."""

    b1: float
    b2: float
    b3: float
    n_crit: float
    n_max_fit: float | None = None


@dataclass
class Scenario:
    name: str
    network: Network
    partition: RegionPartition
    demand: DemandScenario
    control: ControlConfig
    mfd: dict[str, MfdParams] | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return scenario_to_dict(self) == scenario_to_dict(other)


# ---------------------------------------------------------------------------
# Loading


def _require(mapping: Mapping, key: str, ctx: str):
    if key not in mapping:
        raise ScenarioError(f"{ctx}: missing required field '{key}'")
    return mapping[key]


def _check_keys(spec, allowed: set[str], ctx: str) -> None:
    """Reject a section that is not a mapping or names a key outside
    ``allowed``.  YAML mappings load as dicts, and a dict type check costs a
    tenth of an abstract ``Mapping`` check in a loader that makes over a
    hundred of them per grid6 build."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{ctx}: must be a mapping, got {spec!r}")
    if not spec.keys() <= allowed:
        unknown = sorted(spec.keys() - allowed)
        raise ScenarioError(f"{ctx}: unknown key(s) {', '.join(unknown)}")


def read_yaml(path, what: str):
    """Parse a YAML file; an unreadable file or bad YAML raises ScenarioError
    naming the path."""
    try:
        with open(path) as fh:
            return yaml.safe_load(fh)
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read {what}: {exc.strerror}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: YAML parse error: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file.

    Raises ScenarioError naming the offending field or the violated rule.
    """
    raw = read_yaml(path, "scenario")
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: top level must be a mapping")
    return scenario_from_dict(raw, name=str(raw.get("meta", {}).get("name", path)))


def scenario_from_dict(raw: Mapping, name: str = "scenario") -> Scenario:
    _check_keys(
        raw,
        {"meta", "regions", "links", "lanes", "intersections", "plans", "demand", "control", "mfd"},
        "scenario",
    )
    regions_raw = _require(raw, "regions", "scenario")
    links_raw = _require(raw, "links", "scenario")
    inter_raw = _require(raw, "intersections", "scenario")
    plans_raw = _require(raw, "plans", "scenario")
    demand_raw = _require(raw, "demand", "scenario")
    control_raw = raw.get("control", {}) or {}
    lanes_raw = raw.get("lanes", {}) or {}

    regions = tuple(sorted(regions_raw))
    adjacency: dict[str, tuple[str, ...]] = {}
    for r in regions:
        spec = regions_raw[r] or {}
        _check_keys(spec, {"neighbors"}, f"region {r}")
        adjacency[r] = tuple(sorted(spec.get("neighbors", [])))
    for r, nbrs in adjacency.items():
        for h in nbrs:
            if h not in adjacency:
                raise ScenarioError(f"region {r}: unknown neighbor '{h}'")
            if r not in adjacency[h]:
                raise ScenarioError(f"adjacency not symmetric: {r}->{h} but not {h}->{r}")
            if h == r:
                raise ScenarioError(f"region {r} lists itself as neighbor")

    links: dict[str, Link] = {}
    lanes: dict[str, Lane] = {}
    for link_id in sorted(links_raw):
        spec = links_raw[link_id]
        ctx = f"link {link_id}"
        _check_keys(
            spec,
            {"from", "to", "region", "length_m", "lanes", "sat_flow_veh_s", "capacity_veh", "free_speed_mps"},
            ctx,
        )
        region = _require(spec, "region", ctx)
        if region not in adjacency:
            raise ScenarioError(f"{ctx}: unknown region '{region}'")
        length = float(_require(spec, "length_m", ctx))
        if length <= 0:
            raise ScenarioError(f"{ctx}: length_m must be > 0")
        n_lanes = int(spec.get("lanes", 1))
        if n_lanes < 1:
            raise ScenarioError(f"{ctx}: lanes must be >= 1")
        sat = float(spec.get("sat_flow_veh_s", 0.5))
        cap = int(spec.get("capacity_veh", max(1, int(length / 7.0))))
        if sat <= 0:
            raise ScenarioError(f"{ctx}: sat_flow_veh_s must be > 0")
        if cap < 1:
            raise ScenarioError(f"{ctx}: capacity_veh must be >= 1")
        lane_ids = tuple(f"{link_id}_{i}" for i in range(n_lanes))
        links[link_id] = Link(
            id=link_id,
            from_node=str(_require(spec, "from", ctx)),
            to_node=str(_require(spec, "to", ctx)),
            length_m=length,
            lane_count=n_lanes,
            region=region,
            lanes=lane_ids,
            free_speed_mps=float(spec.get("free_speed_mps", 10.0)),
        )
        for lid in lane_ids:
            lanes[lid] = Lane(lid, link_id, sat, cap, ())

    out_links: dict[str, list[str]] = {}
    for link in links.values():
        out_links.setdefault(link.from_node, []).append(link.id)

    # Default wiring: every lane feeds all lanes of all downstream links;
    # the optional ``lanes`` section overrides individual lanes.
    for lid, lane in list(lanes.items()):
        downstream = sorted(out_links.get(links[lane.link].to_node, []))
        default_out = tuple(
            out_lane for nxt in downstream for out_lane in links[nxt].lanes
        )
        lanes[lid] = replace(lane, output_lanes=default_out)
    for lid in sorted(lanes_raw):
        spec = lanes_raw[lid] or {}
        if lid not in lanes:
            raise ScenarioError(f"lane override '{lid}': no such lane")
        _check_keys(spec, {"output_lanes", "sat_flow_veh_s", "capacity_veh"}, f"lane {lid}")
        override = lanes[lid]
        if "output_lanes" in spec:
            override = replace(override, output_lanes=tuple(spec["output_lanes"]))
        if "sat_flow_veh_s" in spec:
            override = replace(override, sat_flow_veh_s=float(spec["sat_flow_veh_s"]))
        if "capacity_veh" in spec:
            override = replace(override, capacity_veh=int(spec["capacity_veh"]))
        lanes[lid] = override

    for lane in lanes.values():
        link = links[lane.link]
        for out in lane.output_lanes:
            if out not in lanes:
                raise ScenarioError(
                    f"lane {lane.id}: output lane '{out}' does not exist"
                )
            out_link = links[lanes[out].link]
            if out_link.from_node != link.to_node:
                raise ScenarioError(
                    f"lane {lane.id}: output lane {out} is on link {out_link.id} "
                    f"which does not start at node {link.to_node}"
                )
        if not lane.output_lanes and out_links.get(link.to_node):
            raise ScenarioError(
                f"lane {lane.id}: empty output_lanes but node {link.to_node} "
                "has outgoing links (only sink lanes may have none)"
            )

    intersections: dict[str, Intersection] = {}
    for node_id in sorted(inter_raw):
        spec = inter_raw[node_id] or {}
        ctx = f"intersection {node_id}"
        _check_keys(spec, {"kind", "boundary", "phases"}, ctx)
        kind = spec.get("kind", INTERIOR)
        if kind not in (GATING, NON_GATING, INTERIOR):
            raise ScenarioError(f"{ctx}: unknown kind '{kind}'")
        boundary = spec.get("boundary")
        if kind == INTERIOR and boundary is not None:
            raise ScenarioError(f"{ctx}: interior intersections carry no boundary")
        if kind != INTERIOR:
            if boundary is None:
                raise ScenarioError(f"{ctx}: {kind} intersections require a boundary")
            boundary = tuple(boundary)
            if len(boundary) != 2 or any(b not in adjacency for b in boundary):
                raise ScenarioError(f"{ctx}: boundary must name two known regions")
            if boundary[1] not in adjacency[boundary[0]]:
                raise ScenarioError(
                    f"{ctx}: regions {boundary[0]} and {boundary[1]} are not adjacent"
                )
        approach = {
            lid
            for link in links.values()
            if link.to_node == node_id
            for lid in link.lanes
        }
        phases = []
        for pid in sorted(spec.get("phases", {}) or {}):
            lane_list = spec["phases"][pid] or []
            for lid in lane_list:
                if lid not in lanes:
                    raise ScenarioError(f"{ctx} phase {pid}: unknown lane '{lid}'")
                if lid not in approach:
                    raise ScenarioError(
                        f"{ctx} phase {pid}: lane {lid} does not approach this node"
                    )
            phases.append(Phase(pid, frozenset(lane_list)))
        if kind == GATING and len(phases) < 2:
            raise ScenarioError(f"{ctx}: gating intersections need >= 2 phases")
        intersections[node_id] = Intersection(
            id=node_id,
            kind=kind,
            phases=tuple(phases),
            boundary=boundary,
        )

    # Every cross-region link transition must happen at a declared boundary
    # intersection for that boundary, so crossings can be attributed exactly.
    for link in links.values():
        for lane_id in link.lanes:
            for out in lanes[lane_id].output_lanes:
                nxt = links[lanes[out].link]
                if nxt.region != link.region:
                    node = intersections.get(link.to_node)
                    key = boundary_key(link.region, nxt.region)
                    if node is None or node.boundary is None:
                        raise ScenarioError(
                            f"links {link.id}->{nxt.id} cross {key} at node "
                            f"{link.to_node} which is not a boundary intersection"
                        )
                    if boundary_key(*node.boundary) != key:
                        raise ScenarioError(
                            f"node {link.to_node} is declared for boundary "
                            f"{node.boundary} but carries a {key} movement"
                        )

    plans: dict[tuple[str, str], list[MultiPhasePlan]] = {}
    gating_nodes: dict[tuple[str, str], list[str]] = {}
    for node in intersections.values():
        if node.kind == GATING and node.boundary is not None:
            gating_nodes.setdefault(boundary_key(*node.boundary), []).append(node.id)
    for pair_raw in sorted(plans_raw):
        i, _, h = pair_raw.partition("|")
        if not h or i not in adjacency or h not in adjacency:
            raise ScenarioError(f"plans: bad boundary key '{pair_raw}' (want 'R1|R2')")
        key = boundary_key(i, h)
        nodes = sorted(gating_nodes.get(key, []))
        for spec in plans_raw[pair_raw]:
            ctx = f"plan {spec.get('id', '?')} of boundary {key}"
            _check_keys(spec, {"id", "phases"}, ctx)
            pid = str(_require(spec, "id", ctx))
            phase_map = _require(spec, "phases", ctx)
            if sorted(phase_map) != nodes:
                raise ScenarioError(
                    f"{ctx}: must assign exactly one phase to each gating "
                    f"intersection {nodes}, got {sorted(phase_map)}"
                )
            for node_id, phase_id in phase_map.items():
                intersections[node_id].phase(str(phase_id))  # raises KeyError
            plans.setdefault(key, []).append(
                MultiPhasePlan(
                    id=pid,
                    boundary=key,
                    phase_by_intersection=tuple(sorted(phase_map.items())),
                )
            )

    seen_pairs = set()
    for i in regions:
        for h in adjacency[i]:
            key = boundary_key(i, h)
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            if not gating_nodes.get(key):
                raise ScenarioError(f"boundary {key} has no gating intersection")
            if not plans.get(key):
                raise ScenarioError(f"boundary {key} has no multi-phase plan")

    ctx = "demand"
    _check_keys(demand_raw, {"horizon_s", "warmup_s", "seed", "od"}, ctx)
    horizon = float(_require(demand_raw, "horizon_s", ctx))
    warmup = float(demand_raw.get("warmup_s", 0.0))
    if not warmup < horizon:
        raise ScenarioError(f"{ctx}: warmup_s must be < horizon_s")
    od_flows = []
    for spec in demand_raw.get("od", []):
        octx = f"demand od {spec.get('origin')}->{spec.get('destination')}"
        _check_keys(spec, {"origin", "destination", "rate_veh_s", "profile"}, octx)
        origin = str(_require(spec, "origin", octx))
        dest = str(_require(spec, "destination", octx))
        for lid in (origin, dest):
            if lid not in links:
                raise ScenarioError(f"{octx}: unknown link '{lid}'")
        if "rate_veh_s" in spec:
            profile = ((0.0, float(spec["rate_veh_s"])),)
        else:
            profile = tuple(
                (float(a), float(b)) for a, b in _require(spec, "profile", octx)
            )
        if any(rate < 0 for _, rate in profile):
            raise ScenarioError(f"{octx}: rates must be >= 0")
        od_flows.append(OdFlow(origin, dest, profile))
    demand = DemandScenario(
        horizon_s=horizon,
        warmup_s=warmup,
        seed=int(demand_raw.get("seed", 0)),
        od=tuple(od_flows),
    )

    control = _control_from_dict(control_raw)
    if not 0 < control.t_micro_s <= control.t_macro_s:
        raise ScenarioError("control: need 0 < t_micro_s <= t_macro_s")
    if abs(control.t_macro_s - control.steps_per_macro * control.t_micro_s) > 1e-9:
        raise ScenarioError("control: t_macro_s must be a multiple of t_micro_s")
    if not 0 < control.activation_threshold < 1:
        raise ScenarioError("control: activation_threshold must lie in (0, 1)")
    for key in ("sigma", "sigma_abs_veh_s"):
        if not getattr(control, key) > 0:
            raise ScenarioError(f"control: {key} must be > 0")

    link_region = {l.id: l.region for l in links.values()}
    partition = RegionPartition(regions, adjacency, link_region)
    network = Network(links, lanes, intersections, plans)

    # Reachability: every OD pair must admit at least one route.
    for flow in demand.od:
        if _route_exists(network, flow.origin, flow.destination) is False:
            raise ScenarioError(
                f"demand od {flow.origin}->{flow.destination}: destination unreachable"
            )

    mfd = mfd_from_dict(raw["mfd"], regions) if raw.get("mfd") else None
    return Scenario(name, network, partition, demand, control, mfd)


def _control_from_dict(raw: Mapping) -> ControlConfig:
    """ControlConfig from a ``control`` block; every value is a float."""
    _check_keys(raw, {f.name for f in fields(ControlConfig)}, "control")
    values = {}
    for key, value in raw.items():
        try:
            values[key] = float(value)
        except (TypeError, ValueError):
            raise ScenarioError(f"control: {key} must be a float, got {value!r}") from None
    return ControlConfig(**values)


def mfd_from_dict(raw, regions: Sequence[str]) -> dict[str, MfdParams]:
    """Read an ``mfd`` block: per region, the coefficients b1, b2, b3, n_crit
    and an optional n_max_fit.  The block must cover exactly the network's
    ``regions``."""
    if not isinstance(raw, Mapping):
        raise ScenarioError("mfd: must map each region to its coefficients")
    unknown = sorted(set(raw) - set(regions))
    if unknown:
        raise ScenarioError(f"mfd: unknown region '{unknown[0]}'")
    params = {}
    for r in sorted(regions):
        spec = raw.get(r)
        if not isinstance(spec, Mapping):
            raise ScenarioError(f"mfd: region {r} has no coefficients")
        _check_keys(spec, {f.name for f in fields(MfdParams)}, f"mfd: region {r}")
        values = {}
        for f in fields(MfdParams):
            value = spec.get(f.name)
            if value is None and f.default is None:
                values[f.name] = None
                continue
            try:
                values[f.name] = float(value)
            except (TypeError, ValueError):
                what = "missing" if value is None else f"not a number ({value!r})"
                raise ScenarioError(f"mfd: region {r} field '{f.name}' is {what}") from None
        params[r] = MfdParams(**values)
    return params


def mfd_to_dict(params: Mapping[str, MfdParams]) -> dict:
    """Write an ``mfd`` block; ``mfd_from_dict`` reads it back unchanged."""
    return {
        r: {
            f.name: None if getattr(p, f.name) is None else float(getattr(p, f.name))
            for f in fields(MfdParams)
        }
        for r, p in sorted(params.items())
    }


def _route_exists(net: Network, origin: str, destination: str) -> bool:
    seen = {origin}
    frontier = [origin]
    while frontier:
        link = frontier.pop()
        if link == destination:
            return True
        for nxt in net.successors(link):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


# ---------------------------------------------------------------------------
# Serialization


def scenario_to_dict(sc: Scenario) -> dict:
    net = sc.network
    links = {}
    lanes = {}
    for link in net.links.values():
        first = net.lanes[link.lanes[0]]
        links[link.id] = {
            "from": link.from_node,
            "to": link.to_node,
            "region": link.region,
            "length_m": float(link.length_m),
            "lanes": link.lane_count,
            "free_speed_mps": float(link.free_speed_mps),
            "sat_flow_veh_s": float(first.sat_flow_veh_s),
            "capacity_veh": int(first.capacity_veh),
        }
        for lid in link.lanes:
            lane = net.lanes[lid]
            lanes[lid] = {
                "output_lanes": list(lane.output_lanes),
                "sat_flow_veh_s": float(lane.sat_flow_veh_s),
                "capacity_veh": int(lane.capacity_veh),
            }
    intersections = {}
    for node in net.intersections.values():
        spec: dict = {"kind": node.kind}
        if node.boundary is not None:
            spec["boundary"] = list(node.boundary)
        if node.phases:
            spec["phases"] = {p.id: sorted(p.allowed_lanes) for p in node.phases}
        intersections[node.id] = spec
    plans = {
        f"{key[0]}|{key[1]}": [
            {"id": p.id, "phases": dict(p.phase_by_intersection)}
            for p in plan_list
        ]
        for key, plan_list in net.plans.items()
    }
    demand = {
        "horizon_s": float(sc.demand.horizon_s),
        "warmup_s": float(sc.demand.warmup_s),
        "seed": int(sc.demand.seed),
        "od": [
            {
                "origin": f.origin,
                "destination": f.destination,
                "profile": [[float(a), float(b)] for a, b in f.profile],
            }
            for f in sc.demand.od
        ],
    }
    control = {f.name: float(getattr(sc.control, f.name)) for f in fields(ControlConfig)}
    out = {
        "meta": {"name": sc.name},
        "regions": {r: {"neighbors": list(sc.partition.adjacency[r])} for r in sc.partition.regions},
        "links": links,
        "lanes": lanes,
        "intersections": intersections,
        "plans": plans,
        "demand": demand,
        "control": control,
    }
    if sc.mfd is not None:
        out["mfd"] = mfd_to_dict(sc.mfd)
    return out


def save_scenario(sc: Scenario, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(scenario_to_dict(sc), fh, sort_keys=False)


# ---------------------------------------------------------------------------
# Routes and hyper-paths


def shortest_paths_to(
    net: Network, destination: str, travel_times: Mapping[str, float], sources: Iterable[str]
) -> dict[str, str]:
    """Next-link choice of the minimum-time route toward ``destination``
    (label-setting on the reversed link graph; ties within 1e-12 go to the
    smallest next link).  The search stops once every link in ``sources`` is
    settled: travel times are positive, so a tie or improvement of a label
    comes from a link with a strictly smaller label, settled earlier, and the
    route of every settled link is final."""
    dist = {destination: travel_times[destination]}
    nxt_choice: dict[str, str] = {}
    pending = set(sources)
    heap = [(dist[destination], destination)]
    while heap:
        d, link = heapq.heappop(heap)
        if d > dist[link]:
            continue
        pending.discard(link)
        if not pending:
            break
        for prev in net.predecessors(link):
            nd = d + travel_times[prev]
            old = dist.get(prev, math.inf)
            if nd < old - 1e-12 or (
                abs(nd - old) <= 1e-12 and link < nxt_choice.get(prev, "~")
            ):
                dist[prev] = nd
                nxt_choice[prev] = link
                heapq.heappush(heap, (nd, prev))
    return nxt_choice


def route_from(
    origin: str, destination: str, nxt_choice: Mapping[str, str]
) -> tuple[str, ...] | None:
    """Link route from ``origin`` along ``shortest_paths_to``'s choices, or
    None when ``destination`` cannot be reached from it."""
    route = [origin]
    while route[-1] != destination:
        step = nxt_choice.get(route[-1])
        if step is None or len(route) > len(nxt_choice) + 1:
            return None
        route.append(step)
    return tuple(route)


def candidate_hyper_path(route: Sequence[str], net: Network) -> list[str]:
    """Region sequence of a link route, consecutive duplicates collapsed.

    The first element is the region of the route's first link; re-entries
    are preserved.  Raises ScenarioError on a disconnected route.
    """
    if not route:
        raise ScenarioError("empty route")
    prev = None
    out: list[str] = []
    for link_id in route:
        if link_id not in net.links:
            raise ScenarioError(f"route names unknown link '{link_id}'")
        if prev is not None and net.links[link_id].from_node != net.links[prev].to_node:
            raise ScenarioError(f"route disconnected between {prev} and {link_id}")
        region = net.links[link_id].region
        if not out or out[-1] != region:
            out.append(region)
        prev = link_id
    return out


def next_region(route: Sequence[str], net: Network) -> str:
    """Upcoming region of a route: the second entry of its hyper-path, or the
    current region when the route never leaves it."""
    hp = candidate_hyper_path(route, net)
    return hp[1] if len(hp) > 1 else hp[0]
