"""Shared fixtures: small hand-built networks used across the suite."""

from __future__ import annotations

import pytest

from msjc.netmodel import Scenario, scenario_from_dict


def make_linear3() -> Scenario:
    """Three regions in a row with a return path into R1.

    R1: a1 -> a2 -> (gate g12);  R2: b1 -> b2 -> (gate g23);  R3: c1 (sink)
    Return: b1 -> rb -> (g12) -> ra (R1 sink)
    """
    raw = {
        "regions": {
            "R1": {"neighbors": ["R2"]},
            "R2": {"neighbors": ["R1", "R3"]},
            "R3": {"neighbors": ["R2"]},
        },
        "links": {
            "a1": _l("n0", "n1", "R1"),
            "a2": _l("n1", "g12", "R1"),
            "b1": _l("g12", "n2", "R2"),
            "b2": _l("n2", "g23", "R2"),
            "c1": _l("g23", "n3", "R3"),
            "rb": _l("n2", "g12", "R2"),
            "ra": _l("g12", "n4", "R1"),
        },
        "intersections": {
            "g12": {
                "kind": "gating",
                "boundary": ["R1", "R2"],
                "phases": {"p_fwd": ["a2_0"], "p_rev": ["rb_0"]},
            },
            "g23": {
                "kind": "gating",
                "boundary": ["R2", "R3"],
                "phases": {"p_go": ["b2_0"], "p_stop": []},
            },
        },
        "plans": {
            "R1|R2": [
                {"id": "s_fwd", "phases": {"g12": "p_fwd"}},
                {"id": "s_rev", "phases": {"g12": "p_rev"}},
            ],
            "R2|R3": [
                {"id": "s_go", "phases": {"g23": "p_go"}},
                {"id": "s_stop", "phases": {"g23": "p_stop"}},
            ],
        },
        "demand": {
            "horizon_s": 600.0,
            "warmup_s": 100.0,
            "seed": 3,
            "od": [{"origin": "a1", "destination": "c1", "rate_veh_s": 0.1}],
        },
        "control": {},
    }
    return scenario_from_dict(raw, name="linear3")


def make_single_gate(
    sat_flow: float = 0.3,
    downstream_cap: int = 10,
) -> Scenario:
    return scenario_from_dict(single_gate_document(sat_flow, downstream_cap), name="single_gate")


def single_gate_document(sat_flow: float = 0.3, downstream_cap: int = 10) -> dict:
    """One gating approach A (R1) crossing into B (R2), plus a reverse
    approach Rv (R2) into Rr (R1).  Four plans: both / fwd / rev / none."""
    return {
        "regions": {"R1": {"neighbors": ["R2"]}, "R2": {"neighbors": ["R1"]}},
        "links": {
            "A": _l("nA", "g", "R1", sat=sat_flow),
            "B": _l("g", "nB", "R2", cap=downstream_cap),
            "Rv": _l("nB", "g", "R2", sat=sat_flow),
            "Rr": _l("g", "nR", "R1", cap=downstream_cap),
        },
        "lanes": {
            "A_0": {"output_lanes": ["B_0"]},
            "Rv_0": {"output_lanes": ["Rr_0"]},
        },
        "intersections": {
            "g": {
                "kind": "gating",
                "boundary": ["R1", "R2"],
                "phases": {
                    "p_both": ["A_0", "Rv_0"],
                    "p_fwd": ["A_0"],
                    "p_rev": ["Rv_0"],
                    "p_none": [],
                },
            }
        },
        "plans": {
            "R1|R2": [
                {"id": "both", "phases": {"g": "p_both"}},
                {"id": "fwd", "phases": {"g": "p_fwd"}},
                {"id": "rev", "phases": {"g": "p_rev"}},
                {"id": "none", "phases": {"g": "p_none"}},
            ]
        },
        "demand": {
            "horizon_s": 600.0,
            "warmup_s": 100.0,
            "seed": 1,
            "od": [
                {"origin": "A", "destination": "B", "rate_veh_s": 0.1},
                {"origin": "Rv", "destination": "Rr", "rate_veh_s": 0.1},
            ],
        },
        "control": {},
    }


def make_two_gate(sat_flow: float = 0.3) -> Scenario:
    """One boundary R1|R2 with two gating intersections.  At g, approach A
    (R1) crosses into B (R2) and Rv (R2) into Rr (R1); at k, C (R1) crosses
    into D (R2) and Sv (R2) into Sr (R1).  Three plans: fwd (A and C), mixed
    (A and Sv) and rev (Rv and Sv)."""
    raw = {
        "regions": {"R1": {"neighbors": ["R2"]}, "R2": {"neighbors": ["R1"]}},
        "links": {
            "A": _l("nA", "g", "R1", sat=sat_flow),
            "B": _l("g", "nB", "R2"),
            "Rv": _l("nB", "g", "R2", sat=sat_flow),
            "Rr": _l("g", "nR", "R1"),
            "C": _l("nC", "k", "R1", sat=sat_flow),
            "D": _l("k", "nD", "R2"),
            "Sv": _l("nD", "k", "R2", sat=sat_flow),
            "Sr": _l("k", "nS", "R1"),
        },
        "lanes": {
            "A_0": {"output_lanes": ["B_0"]},
            "Rv_0": {"output_lanes": ["Rr_0"]},
            "C_0": {"output_lanes": ["D_0"]},
            "Sv_0": {"output_lanes": ["Sr_0"]},
        },
        "intersections": {
            "g": {
                "kind": "gating",
                "boundary": ["R1", "R2"],
                "phases": {"p_fwd": ["A_0"], "p_rev": ["Rv_0"]},
            },
            "k": {
                "kind": "gating",
                "boundary": ["R1", "R2"],
                "phases": {"q_fwd": ["C_0"], "q_rev": ["Sv_0"]},
            },
        },
        "plans": {
            "R1|R2": [
                {"id": "fwd", "phases": {"g": "p_fwd", "k": "q_fwd"}},
                {"id": "mixed", "phases": {"g": "p_fwd", "k": "q_rev"}},
                {"id": "rev", "phases": {"g": "p_rev", "k": "q_rev"}},
            ]
        },
        "demand": {
            "horizon_s": 600.0,
            "warmup_s": 100.0,
            "seed": 1,
            "od": [
                {"origin": "A", "destination": "B", "rate_veh_s": 0.1},
                {"origin": "C", "destination": "D", "rate_veh_s": 0.1},
            ],
        },
        "control": {},
    }
    return scenario_from_dict(raw, name="two_gate")


def make_turn_lanes() -> Scenario:
    """One region.  Link A has two lanes with their own turns: A_0 feeds
    only X and A_1 only Y.  Both branches rejoin at D:
    A -> X -> Xd -> D and A -> Y -> Yd -> D."""
    raw = {
        "regions": {"R1": {"neighbors": []}},
        "links": {
            "A": {**_l("nA", "n1", "R1"), "lanes": 2},
            "X": _l("n1", "nX", "R1"),
            "Y": _l("n1", "nY", "R1"),
            "Xd": _l("nX", "n2", "R1"),
            "Yd": _l("nY", "n2", "R1"),
            "D": _l("n2", "nD", "R1"),
        },
        "lanes": {
            "A_0": {"output_lanes": ["X_0"]},
            "A_1": {"output_lanes": ["Y_0"]},
        },
        "intersections": {},
        "plans": {},
        "demand": {
            "horizon_s": 600.0,
            "warmup_s": 0.0,
            "od": [{"origin": "A", "destination": "D", "rate_veh_s": 0.0}],
        },
        "control": {},
    }
    return scenario_from_dict(raw, name="turn_lanes")


def _l(a: str, b: str, region: str, sat: float = 0.5, cap: int = 25, length: float = 250.0) -> dict:
    return {
        "from": a,
        "to": b,
        "region": region,
        "length_m": length,
        "lanes": 1,
        "free_speed_mps": 10.0,
        "sat_flow_veh_s": sat,
        "capacity_veh": cap,
    }


@pytest.fixture
def linear3() -> Scenario:
    return make_linear3()


@pytest.fixture
def single_gate() -> Scenario:
    return make_single_gate()


@pytest.fixture
def two_gate() -> Scenario:
    return make_two_gate()


@pytest.fixture
def turn_lanes() -> Scenario:
    return make_turn_lanes()
