"""Static road network, region partition, demand profile and control settings.

A scenario is a YAML document with sections ``regions``, ``links``,
``lanes`` (optional overrides), ``intersections``, ``plans``, ``demand``,
``control``, an optional ``mfd`` block written by calibration and an optional
free-form ``meta`` block whose ``meta.name`` names the scenario.  Every
section but ``meta`` rejects a key it does not define, naming the key, and
every value is type-checked: a count must be a whole number, and a wrongly
typed value or an ``inf``/``nan`` raises ScenarioError naming its section
and key.  Plan ids are unique within a boundary.  ``null`` means
"not set" for a key without a default and reads as empty for a list or
mapping.  All rates are veh/s, lengths meters, times seconds.  Identifiers
are strings.

The key tables below (``_SCENARIO`` to ``_MFD_REGION``) are the one
description of the format; ``fixtures`` builds the bundled documents in it.
Phases and boundaries are read only to check the network and resolve each
plan to its green lanes, so the network keeps just each intersection's kind.

Everything loaded here is immutable after validation and safe to share
across threads.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass, fields
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import NamedTuple

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
    to_node: str
    length_m: float
    region: str
    lanes: tuple[str, ...]
    free_speed_mps: float = 10.0

    @property
    def travel_time_s(self) -> float:
        return self.length_m / self.free_speed_mps


@dataclass(frozen=True)
class RegionPartition:
    regions: tuple[str, ...]
    adjacency: dict[str, tuple[str, ...]]

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


class PlanLanes(NamedTuple):
    """One boundary's plans, for its key (i, h), in configured order: their
    ids, and per plan, each in lane id order, the lanes crossing i -> h and
    h -> i and the lanes it turns green (the union of its phases' lanes);
    then every lane of either kind.  The one record of a boundary's plans."""

    ids: tuple[str, ...]
    crossing: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    green: tuple[tuple[str, ...], ...]
    all_crossing: tuple[str, ...]
    all_green: tuple[str, ...]


def boundary_key(i: str, h: str) -> tuple[str, str]:
    """Canonical (unordered) key for the boundary between two regions."""
    return (i, h) if i <= h else (h, i)


class Network:
    """Immutable road network with derived connectivity indexes."""

    def __init__(
        self,
        links: Mapping[str, Link],
        lanes: Mapping[str, Lane],
        node_kind: Mapping[str, str],
        plans: Mapping[tuple[str, str], Sequence[tuple[str, Iterable[str]]]],
    ):
        """``plans``: per boundary key, (plan id, green lanes) in configured order."""
        self.links = dict(sorted(links.items()))
        self.lanes = dict(sorted(lanes.items()))
        self.node_kind = dict(sorted(node_kind.items()))  # intersection -> kind

        # Link successors via lane wiring (prunes movements the lanes forbid),
        # the lanes serving each (link, next link) move, link storage, and per
        # link in ``link_ids`` order the constant terms of a travel-time
        # estimate: free-flow time, lanes and summed lane saturation flow.
        # The route search runs on link indices: ``link_ids`` in id order,
        # ``link_index`` and each link's predecessor indices.  Static tables
        # of one simulator step: each link's region and free-flow time; the
        # queue service order (per link in id order: its region, the kind of
        # its downstream node, None for a plain node, and its lanes); the
        # links, with their lanes, that feed a gating intersection; and per
        # region its links in id order -> lane area (lanes times length).
        self._succ: dict[str, tuple[str, ...]] = {}
        self.link_ids = tuple(self.links)
        self.link_index = {l: k for k, l in enumerate(self.link_ids)}
        self.lanes_to: dict[tuple[str, str], tuple[str, ...]] = {}
        self.storage: dict[str, int] = {}
        self.region_of: dict[str, str] = {}
        self.free_flow_s: dict[str, float] = {}
        travel_time_terms = []
        service_order = []
        gating_approaches = []
        self.region_links: dict[str, dict[str, float]] = {}
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
            free_s = link.travel_time_s
            travel_time_terms.append((free_s, link.lanes, service))
            self.region_of[link.id] = link.region
            self.free_flow_s[link.id] = free_s
            kind = self.node_kind.get(link.to_node)
            service_order.append((link.id, link.region, kind, link.lanes))
            if kind == GATING:
                gating_approaches.append((link.id, link.lanes))
            self.region_links.setdefault(link.region, {})[link.id] = (
                len(link.lanes) * link.length_m
            )
        self.travel_time_terms = tuple(travel_time_terms)
        self.service_order = tuple(service_order)
        self.gating_approaches = tuple(gating_approaches)

        preds: list[list[int]] = [[] for _ in self.link_ids]
        for k, link_id in enumerate(self.link_ids):
            for out in self._succ[link_id]:
                preds[self.link_index[out]].append(k)
        self.pred_index = tuple(map(tuple, preds))

        # Per boundary, its plans' lanes (``PlanLanes``), among them L^p_{i,h}:
        # for each plan and ordered boundary direction, the approach lanes the
        # plan serves whose movement crosses that direction.  Plans turn green
        # only lanes that feed a gating intersection.
        crosses: dict[str, set[tuple[str, str]]] = {}
        for link_id, lanes in self.gating_approaches:
            region = self.region_of[link_id]
            for l in lanes:
                crosses[l] = {
                    (region, self.region_of[self.lanes[out].link])
                    for out in self.lanes[l].output_lanes
                }
        self.plan_lanes: dict[tuple[str, str], PlanLanes] = {}
        for key, plan_list in sorted(plans.items()):
            rev = (key[1], key[0])
            ids = tuple(plan_id for plan_id, _ in plan_list)
            green = [tuple(sorted(lanes)) for _, lanes in plan_list]
            crossing = [
                (
                    tuple(l for l in lanes if key in crosses[l]),
                    tuple(l for l in lanes if rev in crosses[l]),
                )
                for lanes in green
            ]
            all_green = tuple(sorted(set().union(*green)))
            all_crossing = tuple(l for l in all_green if key in crosses[l] or rev in crosses[l])
            self.plan_lanes[key] = PlanLanes(ids, tuple(crossing), tuple(green), all_crossing, all_green)

    def successors(self, link_id: str) -> tuple[str, ...]:
        return self._succ[link_id]


@dataclass(frozen=True)
class MfdParams:
    """Per-region cubic completion-flow coefficients and critical accumulation."""

    b1: float
    b2: float
    b3: float
    n_crit: float
    n_max_fit: float | None = None


@dataclass(eq=False)
class Scenario:
    name: str
    network: Network
    partition: RegionPartition
    demand: DemandScenario
    control: ControlConfig
    mfd: dict[str, MfdParams] | None = None


# ---------------------------------------------------------------------------
# Loading

_REQUIRED = object()
_KIND_NAMES = {float: "a float", int: "an int", str: "a string", list: "a list", dict: "a mapping"}
_POSITIVE = (lambda v: v > 0, "must be > 0")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_NOT_NEGATIVE = (lambda v: v >= 0, "must be >= 0")
_KIND = (lambda v: v in (GATING, NON_GATING, INTERIOR), "must be gating, non_gating or interior")

# One table per section: key -> (kind, default, check).  A default of
# _REQUIRED makes the key mandatory; a default of None leaves it unset, as
# does a null value.  A check is (predicate, text) or None.
_SCENARIO = {
    "meta": (dict, {}, None),
    "regions": (dict, _REQUIRED, None),
    "links": (dict, _REQUIRED, None),
    "lanes": (dict, {}, None),
    "intersections": (dict, _REQUIRED, None),
    "plans": (dict, _REQUIRED, None),
    "demand": (dict, _REQUIRED, None),
    "control": (dict, {}, None),
    "mfd": (dict, {}, None),
}
_REGION = {"neighbors": (list, [], None)}
_LINK = {
    "from": (str, _REQUIRED, None),
    "to": (str, _REQUIRED, None),
    "region": (str, _REQUIRED, None),
    "length_m": (float, _REQUIRED, _POSITIVE),
    "lanes": (int, 1, _AT_LEAST_ONE),
    "sat_flow_veh_s": (float, 0.5, _POSITIVE),
    "capacity_veh": (int, None, _AT_LEAST_ONE),  # unset: one vehicle per 7 m
    "free_speed_mps": (float, 10.0, _POSITIVE),
}
# A lane override replaces its link's values, under the link's rules.
_LANE = {
    "output_lanes": (list, None, None),
    "sat_flow_veh_s": (float, None, _POSITIVE),
    "capacity_veh": (int, None, _AT_LEAST_ONE),
}
_INTERSECTION = {
    "kind": (str, INTERIOR, _KIND),
    "boundary": (list, None, None),
    "phases": (dict, {}, None),
}
_PLAN = {"id": (str, _REQUIRED, None), "phases": (dict, _REQUIRED, None)}
_DEMAND = {
    "horizon_s": (float, _REQUIRED, None),
    "warmup_s": (float, 0.0, None),
    "seed": (int, 0, _NOT_NEGATIVE),
    "od": (list, [], None),
}
_OD = {
    "origin": (str, _REQUIRED, None),
    "destination": (str, _REQUIRED, None),
    "rate_veh_s": (float, None, _NOT_NEGATIVE),
    "profile": (list, None, None),
}
_CONTROL_CHECKS = {
    "sigma": _POSITIVE,
    "sigma_abs_veh_s": _POSITIVE,
    "activation_threshold": (lambda v: 0 < v < 1, "must lie in (0, 1)"),
}
_CONTROL = {f.name: (float, f.default, _CONTROL_CHECKS.get(f.name)) for f in fields(ControlConfig)}
_MFD_REGION = dict.fromkeys(("b1", "b2", "b3", "n_crit"), (float, _REQUIRED, None))
_MFD_REGION["n_max_fit"] = (float, None, None)


def _value(kind: type, value, ctx: str, key: str):
    """``value`` read as ``kind``: a number or numeric string as a float, a
    whole one as an int, a number as a string, null as an empty list or
    mapping.  Anything else raises ScenarioError naming ``ctx`` and ``key``."""
    if type(value) is kind:
        return value
    try:
        if kind is float:
            return float(value)
        if kind is int and float(value).is_integer():
            return int(float(value))
        if kind is str and isinstance(value, (str, int, float)):
            return str(value)
        if value is None and (kind is list or kind is dict):
            return kind()
    except (TypeError, ValueError, OverflowError):
        pass
    raise ScenarioError(f"{ctx}: {key} must be {_KIND_NAMES[kind]}, got {value!r}")


def _names(value, ctx: str, key: str) -> tuple[str, ...]:
    """A list of identifiers, each read as a string."""
    return tuple(
        v if type(v) is str else _value(str, v, ctx, f"{key} entry")
        for v in (value if type(value) is list else _value(list, value, ctx, key))
    )


def _ids(mapping: dict, ctx: str, key: str) -> list[str]:
    """The keys of an id-keyed mapping, sorted; each must be a string."""
    for k in mapping:
        if type(k) is not str:
            raise ScenarioError(f"{ctx}: {key} keys must be strings, got {k!r}")
    return sorted(mapping)


def _section(spec, table: Mapping, ctx: str) -> dict:
    """Every key of ``table`` from one section, converted, defaulted and
    checked.  The section must be a dict, or null for an empty one, with no
    key outside the table.  YAML mappings load as dicts, and a dict type check
    costs a tenth of an abstract ``Mapping`` check."""
    if spec is None:
        spec = {}
    elif type(spec) is not dict:
        raise ScenarioError(f"{ctx}: must be a mapping, got {spec!r}")
    if not spec.keys() <= table.keys():
        unknown = sorted(map(str, spec.keys() - table.keys()))
        raise ScenarioError(f"{ctx}: unknown key(s) {', '.join(unknown)}")
    out = {}
    for key, (kind, default, check) in table.items():
        value = spec.get(key, default)
        if value is _REQUIRED:
            raise ScenarioError(f"{ctx} field '{key}' is missing")
        if value is not None or default is not None:
            if type(value) is not kind:
                value = _value(kind, value, ctx, key)
            if kind is float and not math.isfinite(value):
                raise ScenarioError(f"{ctx}: {key} must be finite, got {value!r}")
            if check is not None and not check[0](value):
                raise ScenarioError(f"{ctx}: {key} {check[1]}")
        out[key] = value
    return out


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
    """Load and validate a scenario file, named by its ``meta.name`` or else
    its path.  Raises ScenarioError naming the offending field or rule."""
    return scenario_from_dict(read_yaml(path, "scenario"), name=str(path))


def scenario_from_dict(raw: Mapping, name: str = "scenario") -> Scenario:
    """Build a scenario from a parsed document, named by its ``meta.name`` or
    else by ``name``."""
    top = _section(raw, _SCENARIO, "scenario")
    if top["meta"].get("name") is not None:
        name = _value(str, top["meta"]["name"], "meta", "name")

    regions_raw = top["regions"]
    regions = tuple(_ids(regions_raw, "scenario", "regions"))
    adjacency: dict[str, tuple[str, ...]] = {}
    for r in regions:
        ctx = f"region {r}"
        nbrs = _section(regions_raw[r], _REGION, ctx)["neighbors"]
        adjacency[r] = tuple(sorted(_names(nbrs, ctx, "neighbors")))
    for r, nbrs in adjacency.items():
        for h in nbrs:
            if h not in adjacency:
                raise ScenarioError(f"region {r}: unknown neighbor '{h}'")
            if r not in adjacency[h]:
                raise ScenarioError(f"adjacency not symmetric: {r}->{h} but not {h}->{r}")
            if h == r:
                raise ScenarioError(f"region {r} lists itself as neighbor")
    partition = RegionPartition(regions, adjacency)

    links: dict[str, Link] = {}
    link_specs: dict[str, dict] = {}
    out_links: dict[str, list[str]] = {}
    links_raw = top["links"]
    for link_id in _ids(links_raw, "scenario", "links"):
        ctx = f"link {link_id}"
        spec = link_specs[link_id] = _section(links_raw[link_id], _LINK, ctx)
        if spec["region"] not in adjacency:
            raise ScenarioError(f"{ctx}: unknown region '{spec['region']}'")
        lane_ids = tuple(f"{link_id}_{i}" for i in range(spec["lanes"]))
        links[link_id] = Link(
            link_id, spec["to"], spec["length_m"], spec["region"], lane_ids, spec["free_speed_mps"]
        )
        out_links.setdefault(spec["from"], []).append(link_id)

    # Default wiring: every lane feeds all lanes of all downstream links;
    # the optional ``lanes`` section overrides individual lanes.
    lanes: dict[str, Lane] = {}
    lanes_raw = top["lanes"]
    for link in links.values():
        spec = link_specs[link.id]
        cap = spec["capacity_veh"] or max(1, int(link.length_m / 7.0))
        default_out = tuple(
            out for nxt in sorted(out_links.get(link.to_node, ())) for out in links[nxt].lanes
        )
        for lid in link.lanes:
            override = _section(lanes_raw.get(lid), _LANE, f"lane {lid}")
            out = override["output_lanes"]
            out = default_out if out is None else _names(out, f"lane {lid}", "output_lanes")
            sat = override["sat_flow_veh_s"] or spec["sat_flow_veh_s"]
            lanes[lid] = Lane(lid, link.id, sat, override["capacity_veh"] or cap, out)
    unknown = sorted(map(str, lanes_raw.keys() - lanes.keys()))
    if unknown:
        raise ScenarioError(f"lane override '{unknown[0]}': no such lane")

    for lane in lanes.values():
        link = links[lane.link]
        for out in lane.output_lanes:
            if out not in lanes:
                raise ScenarioError(f"lane {lane.id}: output lane '{out}' does not exist")
            out_link = links[lanes[out].link]
            if link_specs[out_link.id]["from"] != link.to_node:
                raise ScenarioError(
                    f"lane {lane.id}: output lane {out} is on link {out_link.id} "
                    f"which does not start at node {link.to_node}"
                )
        if not lane.output_lanes and out_links.get(link.to_node):
            raise ScenarioError(
                f"lane {lane.id}: empty output_lanes but node {link.to_node} "
                "has outgoing links (only sink lanes may have none)"
            )

    node_kind: dict[str, str] = {}
    node_boundary: dict[str, tuple[str, ...]] = {}
    node_phases: dict[str, dict[str, frozenset[str]]] = {}
    gating_nodes: dict[tuple[str, str], list[str]] = {}
    inter_raw = top["intersections"]
    for node_id in _ids(inter_raw, "scenario", "intersections"):
        ctx = f"intersection {node_id}"
        spec = _section(inter_raw[node_id], _INTERSECTION, ctx)
        kind, boundary = spec["kind"], spec["boundary"]
        if kind == INTERIOR and boundary is not None:
            raise ScenarioError(f"{ctx}: interior intersections carry no boundary")
        if kind != INTERIOR:
            if boundary is None:
                raise ScenarioError(f"{ctx}: {kind} intersections require a boundary")
            boundary = node_boundary[node_id] = _names(boundary, ctx, "boundary")
            if len(boundary) != 2 or any(b not in adjacency for b in boundary):
                raise ScenarioError(f"{ctx}: boundary must name two known regions")
            if boundary[1] not in adjacency[boundary[0]]:
                raise ScenarioError(f"{ctx}: regions {' and '.join(boundary)} are not adjacent")
        phases = node_phases[node_id] = {}
        for pid in _ids(spec["phases"], ctx, "phases"):
            lane_ids = _names(spec["phases"][pid], ctx, f"phase {pid}")
            for lid in lane_ids:
                if lid not in lanes:
                    raise ScenarioError(f"{ctx} phase {pid}: unknown lane '{lid}'")
                if links[lanes[lid].link].to_node != node_id:
                    raise ScenarioError(f"{ctx} phase {pid}: lane {lid} does not approach this node")
            phases[pid] = frozenset(lane_ids)
        if kind == GATING:
            if len(phases) < 2:
                raise ScenarioError(f"{ctx}: gating intersections need >= 2 phases")
            gating_nodes.setdefault(boundary_key(*boundary), []).append(node_id)
        node_kind[node_id] = kind

    # Every cross-region link transition must happen at a declared boundary
    # intersection for that boundary, so crossings can be attributed exactly.
    for link in links.values():
        for lane_id in link.lanes:
            for out in lanes[lane_id].output_lanes:
                nxt = links[lanes[out].link]
                if nxt.region != link.region:
                    boundary = node_boundary.get(link.to_node)
                    key = boundary_key(link.region, nxt.region)
                    if boundary is None:
                        raise ScenarioError(
                            f"links {link.id}->{nxt.id} cross {key} at node "
                            f"{link.to_node} which is not a boundary intersection"
                        )
                    if boundary_key(*boundary) != key:
                        raise ScenarioError(
                            f"node {link.to_node} is declared for boundary "
                            f"{boundary} but carries a {key} movement"
                        )

    plans: dict[tuple[str, str], list[tuple[str, frozenset[str]]]] = {}
    plans_raw = top["plans"]
    for pair_raw in _ids(plans_raw, "scenario", "plans"):
        i, _, h = pair_raw.partition("|")
        if not h or i not in adjacency or h not in adjacency:
            raise ScenarioError(f"plans: bad boundary key '{pair_raw}' (want 'R1|R2')")
        if h not in adjacency[i]:
            raise ScenarioError(f"plans '{pair_raw}': regions {i} and {h} are not adjacent")
        key = boundary_key(i, h)
        nodes = sorted(gating_nodes.get(key, []))
        for spec in _value(list, plans_raw[pair_raw], "plans", pair_raw):
            ctx = f"plan {spec.get('id', '?') if type(spec) is dict else '?'} of boundary {key}"
            spec = _section(spec, _PLAN, ctx)
            phase_map = spec["phases"]
            if _ids(phase_map, ctx, "phases") != nodes:
                raise ScenarioError(
                    f"{ctx}: must assign exactly one phase to each gating "
                    f"intersection {nodes}, got {sorted(phase_map)}"
                )
            if any(plan_id == spec["id"] for plan_id, _ in plans.get(key, ())):
                raise ScenarioError(f"boundary {key}: duplicate plan id '{spec['id']}'")
            green = frozenset()
            for node_id in nodes:
                phase_id = _value(str, phase_map[node_id], ctx, "phases")
                if phase_id not in node_phases[node_id]:
                    raise ScenarioError(
                        f"{ctx}: phases: intersection {node_id} has no phase '{phase_id}'"
                    )
                green |= node_phases[node_id][phase_id]
            plans.setdefault(key, []).append((spec["id"], green))

    for key in partition.boundary_keys():
        if not gating_nodes.get(key):
            raise ScenarioError(f"boundary {key} has no gating intersection")
        if not plans.get(key):
            raise ScenarioError(f"boundary {key} has no multi-phase plan")

    demand_spec = _section(top["demand"], _DEMAND, "demand")
    if not demand_spec["warmup_s"] < demand_spec["horizon_s"]:
        raise ScenarioError("demand: warmup_s must be < horizon_s")
    od_flows = []
    for spec in demand_spec["od"]:
        ctx = "demand od"
        if type(spec) is dict:
            ctx += f" {spec.get('origin')}->{spec.get('destination')}"
        spec = _section(spec, _OD, ctx)
        for lid in (spec["origin"], spec["destination"]):
            if lid not in links:
                raise ScenarioError(f"{ctx}: unknown link '{lid}'")
        if (spec["rate_veh_s"] is None) == (spec["profile"] is None):
            raise ScenarioError(f"{ctx}: set exactly one of rate_veh_s and profile")
        if spec["profile"] is None:
            profile = ((0.0, spec["rate_veh_s"]),)
        else:
            profile = tuple(_profile_step(step, ctx) for step in spec["profile"])
        od_flows.append(OdFlow(spec["origin"], spec["destination"], profile))
    demand = DemandScenario(**dict(demand_spec, od=tuple(od_flows)))

    control = ControlConfig(**_section(top["control"], _CONTROL, "control"))
    if not 0 < control.t_micro_s <= control.t_macro_s:
        raise ScenarioError("control: need 0 < t_micro_s <= t_macro_s")
    if abs(control.t_macro_s - control.steps_per_macro * control.t_micro_s) > 1e-9:
        raise ScenarioError("control: t_macro_s must be a multiple of t_micro_s")

    network = Network(links, lanes, node_kind, plans)
    # Reachability: every OD pair must admit at least one route.
    for flow in demand.od:
        if not _route_exists(network, flow.origin, flow.destination):
            raise ScenarioError(
                f"demand od {flow.origin}->{flow.destination}: destination unreachable"
            )

    mfd = mfd_from_dict(top["mfd"], regions) if top["mfd"] else None
    return Scenario(name, network, partition, demand, control, mfd)


def _profile_step(step, ctx: str) -> tuple[float, float]:
    """One ``[start_s, rate_veh_s]`` entry of an od profile."""
    if type(step) is not list or len(step) != 2:
        raise ScenarioError(f"{ctx}: profile entries must be [start_s, rate_veh_s], got {step!r}")
    start, rate = (_value(float, v, ctx, "profile entry") for v in step)
    if not (math.isfinite(start) and math.isfinite(rate)):
        raise ScenarioError(f"{ctx}: profile entry must be finite, got {step!r}")
    if not rate >= 0:
        raise ScenarioError(f"{ctx}: profile rates must be >= 0")
    return start, rate


def mfd_from_dict(raw, regions: Sequence[str]) -> dict[str, MfdParams]:
    """Read an ``mfd`` block: per region, the coefficients b1, b2, b3, n_crit
    and an optional n_max_fit.  The block must cover exactly the network's
    ``regions``."""
    if type(raw) is not dict:
        raise ScenarioError("mfd: must map each region to its coefficients")
    unknown = sorted(map(str, raw.keys() - set(regions)))
    if unknown:
        raise ScenarioError(f"mfd: unknown region '{unknown[0]}'")
    params = {}
    for r in sorted(regions):
        if raw.get(r) is None:
            raise ScenarioError(f"mfd: region {r} has no coefficients")
        params[r] = MfdParams(**_section(raw[r], _MFD_REGION, f"mfd: region {r}"))
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
# Routes and hyper-paths


class TravelTimes(Mapping[str, float]):
    """Per-link travel times (link id -> s) fixed for one step, and the
    route searches run on them.  ``shortest_paths_to`` keeps one resumable
    search per destination in ``searches``, so every caller that routes on
    the same times extends the same search.  Read-only: the id view and the
    searches read the same tuple, ``by_index``."""

    def __init__(self, net: Network, times: Iterable[float]):
        """``times`` in ``net.link_ids`` order."""
        self.net = net
        self.by_index = tuple(times)
        self.searches: dict[str, _Search] = {}

    def __getitem__(self, link: str) -> float:
        return self.by_index[self.net.link_index[link]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.net.link_ids)

    def __len__(self) -> int:
        return len(self.by_index)


class _Search:
    """Label-setting state of one destination: per link index its label
    (time to the destination, its own link included), its next link (the
    link count when unset), whether it is settled, and the heap of labels
    still to settle."""

    __slots__ = ("target", "dist", "nxt", "done", "heap")

    def __init__(self, times: TravelTimes, destination: str):
        n = len(times.net.link_ids)
        self.target = times.net.link_index[destination]
        self.dist = [math.inf] * n
        self.dist[self.target] = times.by_index[self.target]
        self.nxt = [n] * n
        self.done = bytearray(n)
        self.heap = [(self.dist[self.target], self.target)]


def shortest_paths_to(
    times: TravelTimes, destination: str, starts: Iterable[str]
) -> dict[str, tuple[str, ...] | None]:
    """Minimum-time link route from each of ``starts`` to ``destination``
    (None: unreachable) on ``times``.

    Label-setting on the reversed link graph, over link indices; ties within
    1e-12 go to the smallest next link (index order is id order).  The
    destination's search lives on ``times`` and runs only until every start
    is settled; a later call resumes it.  Travel times are positive, so a
    tie or improvement of a label comes from a link with a strictly smaller
    label, settled earlier: a settled link's route is final, and a search
    resumed any number of times settles the same routes as one run to the
    end."""
    search = times.searches.get(destination)
    if search is None:
        search = times.searches[destination] = _Search(times, destination)
    net = times.net
    index = net.link_index
    starts = tuple(starts)
    dist, nxt, done, heap = search.dist, search.nxt, search.done, search.heap
    pending = {k for k in map(index.__getitem__, starts) if not done[k]}
    t = times.by_index
    preds = net.pred_index
    pop, push = heapq.heappop, heapq.heappush
    while pending and heap:
        d, link = pop(heap)
        if d > dist[link]:
            continue
        done[link] = 1
        pending.discard(link)
        for prev in preds[link]:
            nd = d + t[prev]
            old = dist[prev]
            if nd < old - 1e-12 or (link < nxt[prev] and abs(nd - old) <= 1e-12):
                dist[prev] = nd
                nxt[prev] = link
                push(heap, (nd, prev))
    # a start left unsettled emptied the heap: it cannot reach the destination
    ids = net.link_ids
    target = search.target
    out = {}
    for start in starts:
        k = index[start]
        route = None
        if done[k]:
            route = [start]
            while k != target:
                k = nxt[k]
                route.append(ids[k])
            route = tuple(route)
        out[start] = route
    return out


def next_region(route: Sequence[str], net: Network) -> str:
    """Region of the first link of a route outside its first link's region,
    or that region when the route never leaves it."""
    here = net.region_of[route[0]]
    for link_id in route:
        region = net.region_of[link_id]
        if region != here:
            return region
    return here
