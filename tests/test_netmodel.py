import copy
import re
from dataclasses import fields

import numpy as np
import pytest
import yaml

from msjc import fixtures, netmodel
from msjc.netmodel import (
    ControlConfig,
    ScenarioError,
    TravelTimes,
    boundary_key,
    load_scenario,
    next_region,
    scenario_from_dict,
    shortest_paths_to,
)
from oracles import forward_shortest_route

MINIMAL = {
    "regions": {"R1": {"neighbors": ["R2"]}, "R2": {"neighbors": ["R1"]}},
    "links": {
        "a": {"from": "n0", "to": "g", "region": "R1", "length_m": 100.0},
        "b": {"from": "g", "to": "n1", "region": "R2", "length_m": 100.0},
    },
    "intersections": {
        "g": {
            "kind": "gating",
            "boundary": ["R1", "R2"],
            "phases": {"go": ["a_0"], "stop": []},
        }
    },
    "plans": {
        "R1|R2": [
            {"id": "s0", "phases": {"g": "go"}},
            {"id": "s1", "phases": {"g": "stop"}},
        ]
    },
    "demand": {
        "horizon_s": 100.0,
        "warmup_s": 0.0,
        "od": [{"origin": "a", "destination": "b", "rate_veh_s": 0.1}],
    },
}


def _raw():
    return yaml.safe_load(yaml.safe_dump(MINIMAL))


def test_minimal_two_region_scenario(tmp_path):
    path = tmp_path / "minimal.yaml"
    path.write_text(yaml.safe_dump(MINIMAL))
    sc = load_scenario(path)
    assert sc.partition.regions == ("R1", "R2")
    assert sc.network.links["a"].region == "R1"
    assert sc.network.lanes["a_0"].output_lanes == ("b_0",)


def test_dangling_output_lane_rejected():
    raw = _raw()
    raw["lanes"] = {"a_0": {"output_lanes": ["missing_0"]}}
    with pytest.raises(ScenarioError, match="missing_0"):
        scenario_from_dict(raw)


def test_output_lane_must_be_downstream():
    raw = _raw()
    raw["links"]["c"] = {"from": "n1", "to": "n2", "region": "R2", "length_m": 50.0}
    raw["lanes"] = {"a_0": {"output_lanes": ["c_0"]}}
    with pytest.raises(ScenarioError, match="does not start at node"):
        scenario_from_dict(raw)


def test_asymmetric_adjacency_rejected():
    raw = _raw()
    raw["regions"]["R2"]["neighbors"] = []
    with pytest.raises(ScenarioError, match="symmetric"):
        scenario_from_dict(raw)


def _self_neighbor(raw):
    raw["regions"]["R1"]["neighbors"].append("R1")


def _interior_with_boundary(raw):
    raw["intersections"]["n1"] = {"kind": "interior", "boundary": ["R1", "R2"]}


def _boundary_of_non_neighbors(raw):
    raw["regions"]["R3"] = {"neighbors": []}
    raw["intersections"]["g"]["boundary"] = ["R1", "R3"]


def _phase_lane_elsewhere(raw):
    raw["intersections"]["g"]["phases"]["go"] = ["b_0"]


def _node_of_another_boundary(raw):
    # g is declared for R1|R3 but link a (R1) feeds link b (R2) through it
    raw["regions"]["R3"] = {"neighbors": ["R1"]}
    raw["regions"]["R1"]["neighbors"].append("R3")
    raw["intersections"]["g"]["boundary"] = ["R1", "R3"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (_self_neighbor, "region R1 lists itself as neighbor"),
        (_interior_with_boundary, "intersection n1: interior intersections carry no boundary"),
        (_boundary_of_non_neighbors, "intersection g: regions R1 and R3 are not adjacent"),
        (_phase_lane_elsewhere, "intersection g phase go: lane b_0 does not approach this node"),
        (_node_of_another_boundary,
         "node g is declared for boundary ('R1', 'R3') but carries a ('R1', 'R2') movement"),
    ],
)
def test_inconsistent_topology_rejected(edit, message):
    raw = _raw()
    edit(raw)
    with pytest.raises(ScenarioError, match=re.escape(message)):
        scenario_from_dict(raw)


def test_boundary_without_gating_intersection_rejected():
    raw = _raw()
    raw["intersections"]["g"]["kind"] = "non_gating"
    del raw["intersections"]["g"]["phases"]
    raw["plans"] = {"R1|R2": []}
    with pytest.raises(ScenarioError, match="gating"):
        scenario_from_dict(raw)


def test_boundary_without_plan_rejected():
    raw = _raw()
    raw["plans"] = {"R1|R2": []}
    with pytest.raises(ScenarioError, match="plan"):
        scenario_from_dict(raw)


def test_unreachable_demand_rejected():
    raw = _raw()
    raw["demand"]["od"] = [{"origin": "b", "destination": "a", "rate_veh_s": 0.1}]
    with pytest.raises(ScenarioError, match="unreachable"):
        scenario_from_dict(raw)


def test_warmup_must_precede_horizon():
    raw = _raw()
    raw["demand"]["warmup_s"] = 100.0
    with pytest.raises(ScenarioError, match="warmup"):
        scenario_from_dict(raw)


def test_grid6_partitions_six_symmetric_regions():
    sc = fixtures.grid6()
    assert len(sc.partition.regions) == 6
    for r in sc.partition.regions:
        for h in sc.partition.adjacency[r]:
            assert r in sc.partition.adjacency[h]
    # every boundary pair carries at least one plan
    for i, h in sc.partition.ordered_boundaries():
        assert sc.network.plan_lanes[boundary_key(i, h)].ids


def test_every_lane_outputs_onto_downstream_links():
    raw = fixtures.grid6_document()
    net = scenario_from_dict(raw).network
    for lane in net.lanes.values():
        link = net.links[lane.link]
        for out in lane.output_lanes:
            assert raw["links"][net.lanes[out].link]["from"] == link.to_node


def test_every_control_setting_loads(tmp_path):
    control = ControlConfig(
        t_macro_s=120.0,
        t_micro_s=12.0,
        sigma=0.2,
        sigma_abs_veh_s=0.07,
        activation_threshold=0.4,
        route_beta=3.0,
        logit_theta=0.02,
        pi_kp=0.06,
        pi_ki=0.03,
        cap_factor=2.5,
    )
    default = ControlConfig()
    assert all(getattr(control, f.name) != getattr(default, f.name) for f in fields(ControlConfig))
    raw = fixtures.corridor2_document()
    raw["control"] = {f.name: getattr(control, f.name) for f in fields(ControlConfig)}
    path = tmp_path / "control.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert load_scenario(path).control == control


def _fresh(net, tt):
    """``tt`` as travel times with no search run on them yet."""
    return TravelTimes(net, [tt[l] for l in net.link_ids])


def _stopped_and_full_routes(net, tt, several):
    """Per (origin, destination): the routes of searches stopped at that
    origin alone, at ``several`` (when the origin is among them) and at all
    links, and whether the search stopped at the origin alone settled fewer
    links than the full one."""
    links = sorted(net.links)
    for destination in links:
        full_times = _fresh(net, tt)
        full = shortest_paths_to(full_times, destination, links)
        settled_by_full = sum(full_times.searches[destination].done)
        partial = shortest_paths_to(_fresh(net, tt), destination, several)
        for origin in links:
            times = _fresh(net, tt)
            alone = shortest_paths_to(times, destination, (origin,))
            routes = [alone[origin], full[origin]]
            if origin in several:
                routes.append(partial[origin])
            yield origin, destination, routes, sum(times.searches[destination].done) < settled_by_full


def test_stopped_search_routes_like_the_forward_reference():
    net = fixtures.grid6().network
    links = sorted(net.links)
    rng = np.random.default_rng(0)
    # random times leave no exact ties, so every route is unique
    tt = {l: float(rng.uniform(5.0, 60.0)) for l in links}
    routed = stopped_early = 0
    for origin, destination, routes, early in _stopped_and_full_routes(net, tt, links[::3]):
        expected = forward_shortest_route(net, origin, destination, tt)
        assert routes == [expected] * len(routes)
        routed += expected is not None and len(expected) > 2
        stopped_early += early
    assert routed > 0 and stopped_early > 0


def test_stopped_search_breaks_near_ties_like_the_full_search():
    net = fixtures.grid6().network
    links = sorted(net.links)
    rng = np.random.default_rng(1)
    # equal times up to rounding noise: every tie is decided by the 1e-12
    # rule, often after the first label was set
    tt = {l: 20.0 + float(rng.uniform(0.0, 1e-13)) for l in links}
    for _, _, routes, _ in _stopped_and_full_routes(net, tt, links[::3]):
        assert routes == [routes[1]] * len(routes)


@pytest.mark.parametrize("kind", ["tie-free", "whole seconds"])
def test_a_search_extended_over_several_calls_routes_like_a_fresh_one(kind):
    net = fixtures.grid6().network
    links = sorted(net.links)
    rng = np.random.default_rng(2)
    if kind == "tie-free":
        tt = {l: float(rng.uniform(5.0, 60.0)) for l in links}
    else:
        # 20 or 21 s per link: routes of equal cost tie exactly
        tt = {l: float(rng.integers(20, 22)) for l in links}
    fresh = {
        (origin, destination): shortest_paths_to(_fresh(net, tt), destination, (origin,))[origin]
        for destination in links
        for origin in links
    }

    def cost(route):
        return sum(map(tt.get, route))

    tied = 0  # links with two next links on equally short routes
    for (origin, destination), route in fresh.items():
        expected = forward_shortest_route(net, origin, destination, tt)
        assert (route is None) == (expected is None)
        if route is None or origin == destination:
            continue
        assert cost(route) == cost(expected)
        if kind == "tie-free":
            assert route == expected
        best = [
            s
            for s in net.successors(origin)
            if fresh[(s, destination)] is not None
            and tt[origin] + cost(fresh[(s, destination)]) == cost(route)
        ]
        if kind == "whole seconds":  # sums of whole seconds are exact
            assert route[1] == min(best)
        tied += len(best) > 1
    assert (tied > 0) == (kind == "whole seconds")
    extended = 0
    for _ in range(4):
        times = _fresh(net, tt)
        for destination in links:
            starts = [links[k] for k in rng.permutation(len(links))]
            cuts = sorted(rng.choice(range(1, len(links)), size=3, replace=False))
            for lo, hi in zip([0, *cuts], [*cuts, len(links)]):
                chunk = starts[lo:hi]
                search = times.searches.get(destination)
                settled = sum(search.done) if search else 0
                routes = shortest_paths_to(times, destination, chunk)
                assert routes == {o: fresh[(o, destination)] for o in chunk}
                extended += 0 < settled < sum(times.searches[destination].done)
    assert extended > 0


def test_lane_and_storage_tables_follow_the_lane_wiring():
    net = fixtures.grid6().network
    for link in net.links.values():
        assert net.storage[link.id] == sum(net.lanes[l].capacity_veh for l in link.lanes)
        for nxt in net.successors(link.id):
            assert net.lanes_to[(link.id, nxt)] == tuple(
                l
                for l in link.lanes
                if any(net.lanes[out].link == nxt for out in net.lanes[l].output_lanes)
            )
    assert len(net.lanes_to) == sum(len(net.successors(l)) for l in net.links)


@pytest.mark.parametrize("build", [fixtures.grid6_document, fixtures.corridor2_document])
def test_service_order_serves_each_lane_once_in_link_id_order(build):
    raw = build()
    net = scenario_from_dict(raw).network
    assert [link_id for link_id, *_ in net.service_order] == sorted(net.links)
    lanes = [l for *_, link_lanes in net.service_order for l in link_lanes]
    assert len(lanes) == len(set(lanes)) and set(lanes) == set(net.lanes)
    for link_id, region, kind, link_lanes in net.service_order:
        link = net.links[link_id]
        node = raw["intersections"].get(link.to_node)
        assert (region, kind, link_lanes) == (
            link.region, None if node is None else node.get("kind", netmodel.INTERIOR), link.lanes
        )


def test_boundary_key_is_order_free():
    assert boundary_key("R2", "R1") == ("R1", "R2")
    assert boundary_key("R1", "R2") == ("R1", "R2")


class TestNextRegion:
    def test_single_region_route(self, linear3):
        assert next_region(["a1", "a2"], linear3.network) == "R1"

    def test_first_region_left_into(self, linear3):
        assert next_region(["a1", "a2", "b1", "b2", "c1"], linear3.network) == "R2"

    def test_reentry_route(self, linear3):
        assert next_region(["a2", "b1", "rb", "ra"], linear3.network) == "R2"


class TestTwoGatingNodes:
    def test_green_is_the_union_of_both_nodes_phases(self, two_gate):
        lanes = two_gate.network.plan_lanes[("R1", "R2")]
        assert dict(zip(lanes.ids, lanes.green)) == {
            "fwd": ("A_0", "C_0"),
            "mixed": ("A_0", "Sv_0"),
            "rev": ("Rv_0", "Sv_0"),
        }

    def test_crossing_lanes_count_both_nodes(self, two_gate):
        net = two_gate.network
        lanes = net.plan_lanes[("R1", "R2")]
        assert dict(zip(lanes.ids, lanes.crossing)) == {
            "fwd": (("A_0", "C_0"), ()),
            "mixed": (("A_0",), ("Sv_0",)),
            "rev": ((), ("Rv_0", "Sv_0")),
        }
        assert lanes.green == (("A_0", "C_0"), ("A_0", "Sv_0"), ("Rv_0", "Sv_0"))
        assert lanes.all_crossing == lanes.all_green == ("A_0", "C_0", "Rv_0", "Sv_0")


def test_unknown_control_key_rejected():
    raw = _raw()
    raw["control"] = {"route_beta": 5.0, "route_betta": 5.0}
    with pytest.raises(ScenarioError, match="route_betta"):
        scenario_from_dict(raw)


# One misspelt or removed key per section; the control block has its own
# test above.
@pytest.mark.parametrize(
    "section, where, key",
    [
        ("scenario", lambda raw: raw, "controls"),
        ("region R1", lambda raw: raw["regions"]["R1"], "neighbours"),
        ("link a", lambda raw: raw["links"]["a"], "free_sped_mps"),
        ("lane a_0", lambda raw: raw.setdefault("lanes", {"a_0": {}})["a_0"], "output_lane"),
        ("intersection g", lambda raw: raw["intersections"]["g"], "service_rate_veh_s"),
        ("plan s0", lambda raw: raw["plans"]["R1|R2"][0], "phase"),
        ("demand", lambda raw: raw["demand"], "horizon"),
        ("demand od a->b", lambda raw: raw["demand"]["od"][0], "rate_veh"),
    ],
)
def test_unknown_key_rejected_in_every_section(section, where, key):
    raw = _raw()
    where(raw)[key] = 1.0
    with pytest.raises(ScenarioError, match=f"^{section}.*: unknown key\\(s\\) {key}$"):
        scenario_from_dict(raw)


@pytest.mark.parametrize("key", ["sigma", "sigma_abs_veh_s"])
@pytest.mark.parametrize("value", [0.0, -0.05])
def test_band_widths_must_be_positive(key, value):
    raw = _raw()
    raw["control"] = {key: value}
    with pytest.raises(ScenarioError, match=f"control: {key} must be > 0"):
        scenario_from_dict(raw)


@pytest.mark.parametrize(
    "key, value", [("t_macro_s", "abc"), ("sigma", [0.1]), ("activation_threshold", None)]
)
def test_wrongly_typed_control_value_rejected(key, value):
    raw = _raw()
    raw["control"] = {key: value}
    with pytest.raises(ScenarioError, match=f"control: {key} must be a float"):
        scenario_from_dict(raw)


def test_control_values_take_their_declared_types():
    raw = _raw()
    raw["control"] = {"t_macro_s": 100, "t_micro_s": "10"}
    control = scenario_from_dict(raw).control
    assert control.t_macro_s == 100.0 and isinstance(control.t_macro_s, float)
    assert control.t_micro_s == 10.0 and isinstance(control.t_micro_s, float)


MFD_R = {"b1": 0.08, "b2": -1.2e-3, "b3": 4.0e-6, "n_crit": 42.0, "n_max_fit": 120.0}


@pytest.mark.parametrize(
    "mfd, message",
    [
        ({"R1": dict(MFD_R), "R2": {k: v for k, v in MFD_R.items() if k != "b1"}},
         "region R2 field 'b1' is missing"),
        ({"R1": dict(MFD_R), "R2": dict(MFD_R, n_crit="high")},
         "region R2: n_crit must be a float"),
        ({"R1": dict(MFD_R), "R2": dict(MFD_R), "R9": dict(MFD_R)}, "unknown region 'R9'"),
        ({"R1": dict(MFD_R)}, "region R2 has no coefficients"),
        ({"R1": dict(MFD_R, n_crit_veh=40.0), "R2": dict(MFD_R)},
         "region R1: unknown key\\(s\\) n_crit_veh"),
    ],
)
def test_bad_mfd_block_rejected(mfd, message):
    raw = _raw()
    raw["mfd"] = mfd
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(raw)


def test_missing_scenario_file_names_the_path(tmp_path):
    path = tmp_path / "nowhere.yaml"
    with pytest.raises(ScenarioError, match="nowhere.yaml: cannot read scenario"):
        load_scenario(path)


@pytest.mark.parametrize(
    "control", [{"t_micro_s": 0.0}, {"t_macro_s": 0.0}, {"t_micro_s": 20.0, "t_macro_s": 10.0}]
)
def test_micro_step_must_be_positive_and_fit_the_macro_step(control):
    raw = _raw()
    raw["control"] = control
    with pytest.raises(ScenarioError, match="0 < t_micro_s <= t_macro_s"):
        scenario_from_dict(raw)


# Each field has one rule wherever it is set (on a link, a lane override or
# an od entry), and a value a run cannot use fails the load: a zero speed or
# service rate divides by zero, and a negative seed stops the simulator.
@pytest.mark.parametrize(
    "where, key, value, message",
    [
        (lambda raw: raw["links"]["a"], "free_speed_mps", 0, "link a: free_speed_mps must be > 0"),
        (lambda raw: raw["links"]["a"], "free_speed_mps", -5, "link a: free_speed_mps must be > 0"),
        (lambda raw: raw.setdefault("lanes", {"a_0": {}})["a_0"], "sat_flow_veh_s", 0,
         "lane a_0: sat_flow_veh_s must be > 0"),
        (lambda raw: raw.setdefault("lanes", {"a_0": {}})["a_0"], "capacity_veh", 0,
         "lane a_0: capacity_veh must be >= 1"),
        (lambda raw: raw["links"]["a"], "lanes", 1.5, "link a: lanes must be an int, got 1.5"),
        (lambda raw: raw["demand"], "seed", -1, "demand: seed must be >= 0"),
        (lambda raw: raw["demand"]["od"][0], "profile", [[0.0, 0.1]],
         "demand od a->b: set exactly one of rate_veh_s and profile"),
    ],
)
def test_a_field_has_one_rule_wherever_it_is_set(where, key, value, message):
    raw = _raw()
    where(raw)[key] = value
    with pytest.raises(ScenarioError, match=re.escape(message)):
        scenario_from_dict(raw)


BAD_VALUES = ("abc", [], {}, None, -1, 0, 1.5, ["x"], {"k": 1}, [[1, 2, 3]], True)


def _nodes(tree, path=()):
    """(container, key, path) of every value below ``tree``, depth first."""
    for key, value in list(tree.items() if isinstance(tree, dict) else enumerate(tree)):
        yield tree, key, path + (key,)
        if isinstance(value, (dict, list)):
            yield from _nodes(value, path + (key,))


# The reader table that reads the value at each key path of a document.
_READERS = {
    (): "_SCENARIO",
    ("regions", None): "_REGION",
    ("links", None): "_LINK",
    ("lanes", None): "_LANE",
    ("intersections", None): "_INTERSECTION",
    ("plans", None, None): "_PLAN",
    ("demand",): "_DEMAND",
    ("demand", "od", None): "_OD",
    ("control",): "_CONTROL",
    ("mfd", None): "_MFD_REGION",
}


def _read_by(path):
    """(table name, key) of the reader table that reads ``path``, or None."""
    for prefix, table in _READERS.items():
        if len(path) == len(prefix) + 1 and all(
            p is None or p == q for p, q in zip(prefix, path)
        ):
            return table, path[-1]
    return None


def _full_corridor2():
    """corridor2's document with every control key, one od given as a
    profile and one lane override that sets both rates."""
    raw = fixtures.corridor2_document()
    raw["control"] = {f.name: f.default for f in fields(ControlConfig)}
    raw["demand"]["od"][1] = {
        "origin": "src2", "destination": "snk1", "profile": [[0.0, 0.2], [600.0, 0.1]]
    }
    raw["lanes"]["src1_0"] = {"sat_flow_veh_s": 0.6, "capacity_veh": 28}
    return raw


def test_no_mutation_escapes_as_a_traceback():
    """Swapping any one value of a full scenario document for a bad one
    either loads or raises ScenarioError, never another exception, and the
    swapped values reach every key of every reader table."""
    raw = _full_corridor2()
    scenario_from_dict(raw)
    escaped = []
    reached = {table: set() for table in _READERS.values()}
    for container, key, path in list(_nodes(raw)):
        read = _read_by(path)
        if read is not None:
            reached[read[0]].add(read[1])
        original = container[key]
        for bad in BAD_VALUES:
            container[key] = copy.deepcopy(bad)
            try:
                scenario_from_dict(raw)
            except ScenarioError:
                pass
            except Exception as exc:
                escaped.append(f"{'.'.join(map(str, path))} = {bad!r}: {exc!r}")
        container[key] = original
    assert not escaped, f"{len(escaped)} escaped, e.g. " + "; ".join(escaped[:5])
    assert reached == {table: set(getattr(netmodel, table)) for table in reached}


@pytest.mark.parametrize("section", ["regions", "links", "intersections", "plans"])
def test_an_id_key_must_be_a_string(section):
    raw = _raw()
    raw[section][1] = next(iter(raw[section].values()))
    with pytest.raises(ScenarioError, match=f"scenario: {section} keys must be strings, got 1"):
        scenario_from_dict(raw)


# YAML reads .inf and .nan as floats; a run cannot use either (an infinite
# horizon is a run with no time cap).
@pytest.mark.parametrize("bad", [".inf", "-.inf", ".nan", "'inf'"])
@pytest.mark.parametrize(
    "where, key, message",
    [
        (lambda raw: raw["demand"], "horizon_s", "demand: horizon_s must be finite"),
        (lambda raw: raw["links"]["a"], "length_m", "link a: length_m must be finite"),
        (lambda raw: raw.setdefault("control", {}), "sigma", "control: sigma must be finite"),
        (lambda raw: raw.setdefault("mfd", {"R1": dict(MFD_R), "R2": dict(MFD_R)})["R2"], "b1",
         "mfd: region R2: b1 must be finite"),
    ],
)
def test_non_finite_number_rejected(where, key, message, bad):
    raw = _raw()
    where(raw)[key] = yaml.safe_load(bad)
    with pytest.raises(ScenarioError, match=re.escape(message)):
        scenario_from_dict(raw)


@pytest.mark.parametrize("step", ["[0.0, .inf]", "[.nan, 0.1]", "['-inf', 0.1]"])
def test_non_finite_profile_entry_rejected(step):
    raw = _raw()
    raw["demand"]["od"][0] = {"origin": "a", "destination": "b", "profile": [yaml.safe_load(step)]}
    with pytest.raises(ScenarioError, match="demand od a->b: profile entry must be finite"):
        scenario_from_dict(raw)


# A plans key must name two adjacent regions.  Such a key once loaded, and
# the simulator cycled its empty plan every step.
@pytest.mark.parametrize("key", ["R1|R3", "R1|R1"])
def test_plans_key_of_no_boundary_rejected(key):
    raw = fixtures.grid6_document()
    raw["plans"][key] = [{"id": "x", "phases": {}}]
    i, _, h = key.partition("|")
    message = f"plans '{key}': regions {i} and {h} are not adjacent"
    with pytest.raises(ScenarioError, match=re.escape(message)):
        scenario_from_dict(raw)


def test_duplicate_plan_id_within_a_boundary_rejected():
    raw = fixtures.corridor2_document()
    [plan] = [p for p in raw["plans"]["R1|R2"] if p["id"] == "east"]
    plan["id"] = "both"
    with pytest.raises(ScenarioError, match="boundary \\('R1', 'R2'\\): duplicate plan id 'both'"):
        scenario_from_dict(raw)
