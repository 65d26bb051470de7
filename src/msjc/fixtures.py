"""Bundled synthetic scenarios.

Each scenario is written as a scenario document (the format that
``netmodel`` reads): ``corridor2_document`` and ``grid6_document`` build it,
and ``corridor2`` and ``grid6`` load it.  ``BUILTIN`` maps each name to its
document builder; ``msjc make-scenario`` writes that document out.

``corridor2``: two regions joined by one gating and one non-gating
intersection, with opposing through demand.  Small enough for oracle tests.

``grid6``: six regions in a 2x3 mosaic, each a hub with a source and a sink,
joined by one gating intersection per boundary.  Cross demands admit several
hyper-paths, so route guidance matters.  Sized so a run takes well under a
second (0.03-0.2 s per strategy at seed 0 on a 2-CPU VM) and a five-strategy
comparison over five seeds about 2 s.
"""

from __future__ import annotations

from .netmodel import Scenario, scenario_from_dict

GRID6_ADJACENCY = {
    "R1": ["R2", "R4"],
    "R2": ["R1", "R3", "R5"],
    "R3": ["R2", "R6"],
    "R4": ["R1", "R5"],
    "R5": ["R2", "R4", "R6"],
    "R6": ["R3", "R5"],
}

# Hand-set cubics, kept inline so control runs need no calibration pass.
# They were not fitted by `msjc calibrate`: on grid6 that gives b1 of about
# 0.014-0.017 with b3 < 0, against b1 = 0.08 and b3 > 0 here.  Changing them
# changes every run.
CORRIDOR2_MFD = {
    "R1": {"b1": 0.08, "b2": -1.2e-3, "b3": 4.0e-6, "n_crit": 42.0, "n_max_fit": 120.0},
    "R2": {"b1": 0.08, "b2": -1.2e-3, "b3": 4.0e-6, "n_crit": 42.0, "n_max_fit": 120.0},
}

# The same hand-set cubic per region (see CORRIDOR2_MFD).
GRID6_MFD = {
    r: {"b1": 0.08, "b2": -1.2e-3, "b3": 4.0e-6, "n_crit": 42.0, "n_max_fit": 150.0}
    for r in GRID6_ADJACENCY
}


def corridor2(
    horizon_s: float = 1500.0,
    east_rate: float = 0.35,
    west_rate: float = 0.2,
    with_mfd: bool = True,
) -> Scenario:
    return scenario_from_dict(corridor2_document(horizon_s, east_rate, west_rate, with_mfd))


def grid6(horizon_s: float = 1500.0, with_mfd: bool = True) -> Scenario:
    return scenario_from_dict(grid6_document(horizon_s, with_mfd))


def corridor2_document(
    horizon_s: float = 1500.0,
    east_rate: float = 0.35,
    west_rate: float = 0.2,
    with_mfd: bool = True,
) -> dict:
    links = {
        "src1": _link("s1", "a", "R1", length=300, cap=30),
        "f_app": _link("a", "g", "R1"),
        "f_app_ng": _link("a", "ng", "R1"),
        "f_exit": _link("g", "c", "R2"),
        "f_exit_ng": _link("ng", "c", "R2"),
        "snk2": _link("c", "t2", "R2", length=300, cap=30),
        "src2": _link("s2", "c", "R2", length=300, cap=30),
        "r_app": _link("c", "g", "R2"),
        "r_app_ng": _link("c", "ng", "R2"),
        "r_exit": _link("g", "b", "R1"),
        "r_exit_ng": _link("ng", "b", "R1"),
        "snk1": _link("b", "t1", "R1", length=300, cap=30),
    }
    lanes = {
        "f_app_0": {"output_lanes": ["f_exit_0"]},
        "r_app_0": {"output_lanes": ["r_exit_0"]},
        "f_app_ng_0": {"output_lanes": ["f_exit_ng_0"]},
        "r_app_ng_0": {"output_lanes": ["r_exit_ng_0"]},
        "f_exit_0": {"output_lanes": ["snk2_0"]},
        "f_exit_ng_0": {"output_lanes": ["snk2_0"]},
    }
    intersections = {
        "g": {
            "kind": "gating",
            "boundary": ["R1", "R2"],
            "phases": {
                "p_both": ["f_app_0", "r_app_0"],
                "p_east": ["f_app_0"],
                "p_west": ["r_app_0"],
                "p_none": [],
            },
        },
        "ng": {"kind": "non_gating", "boundary": ["R1", "R2"]},
    }
    plans = {
        "R1|R2": [
            {"id": "both", "phases": {"g": "p_both"}},
            {"id": "east", "phases": {"g": "p_east"}},
            {"id": "west", "phases": {"g": "p_west"}},
            {"id": "none", "phases": {"g": "p_none"}},
        ]
    }
    demand = {
        "horizon_s": horizon_s,
        "warmup_s": 200.0,
        "seed": 1,
        "od": [
            {"origin": "src1", "destination": "snk2", "rate_veh_s": east_rate},
            {"origin": "src2", "destination": "snk1", "rate_veh_s": west_rate},
        ],
    }
    raw = {
        "meta": {"name": "corridor2"},
        "regions": {"R1": {"neighbors": ["R2"]}, "R2": {"neighbors": ["R1"]}},
        "links": links,
        "lanes": lanes,
        "intersections": intersections,
        "plans": plans,
        "demand": demand,
        "control": {},
    }
    if with_mfd:
        raw["mfd"] = {r: dict(p) for r, p in CORRIDOR2_MFD.items()}
    return raw


def grid6_document(horizon_s: float = 1500.0, with_mfd: bool = True) -> dict:
    regions = {r: {"neighbors": sorted(n)} for r, n in GRID6_ADJACENCY.items()}
    links: dict[str, dict] = {}
    lanes: dict[str, dict] = {}
    intersections: dict[str, dict] = {}
    plans: dict[str, list] = {}

    for r in sorted(GRID6_ADJACENCY):
        links[f"src_{r}"] = _link(f"s_{r}", f"hub_{r}", r, length=300, cap=30)
        links[f"snk_{r}"] = _link(f"hub_{r}", f"t_{r}", r, length=300, cap=30)

    pairs = sorted(
        {tuple(sorted((r, q))) for r, nbrs in GRID6_ADJACENCY.items() for q in nbrs}
    )
    for r, q in pairs:
        gate = f"gate_{r}_{q}"
        links[f"app_{r}_{q}"] = _link(f"hub_{r}", gate, r)
        links[f"exit_{r}_{q}"] = _link(gate, f"hub_{q}", q)
        links[f"app_{q}_{r}"] = _link(f"hub_{q}", gate, q)
        links[f"exit_{q}_{r}"] = _link(gate, f"hub_{r}", r)
        lanes[f"app_{r}_{q}_0"] = {"output_lanes": [f"exit_{r}_{q}_0"]}
        lanes[f"app_{q}_{r}_0"] = {"output_lanes": [f"exit_{q}_{r}_0"]}
        intersections[gate] = {
            "kind": "gating",
            "boundary": [r, q],
            "phases": {
                "p_both": [f"app_{r}_{q}_0", f"app_{q}_{r}_0"],
                "p_fwd": [f"app_{r}_{q}_0"],
                "p_rev": [f"app_{q}_{r}_0"],
                "p_none": [],
            },
        }
        plans[f"{r}|{q}"] = [
            {"id": "both", "phases": {gate: "p_both"}},
            {"id": "fwd", "phases": {gate: "p_fwd"}},
            {"id": "rev", "phases": {gate: "p_rev"}},
            {"id": "none", "phases": {gate: "p_none"}},
        ]

    base = [
        ("R1", "R6", 0.10),
        ("R6", "R1", 0.10),
        ("R3", "R4", 0.10),
        ("R4", "R3", 0.10),
        ("R1", "R3", 0.08),
        ("R4", "R6", 0.08),
        ("R2", "R5", 0.08),
        ("R5", "R2", 0.08),
    ]
    od = [
        {
            "origin": f"src_{a}",
            "destination": f"snk_{b}",
            "rate_veh_s": rate,
        }
        for a, b, rate in base
    ] + [
        {
            "origin": f"src_{r}",
            "destination": f"snk_{r}",
            "rate_veh_s": 0.03,
        }
        for r in sorted(GRID6_ADJACENCY)
    ]
    raw = {
        "meta": {"name": "grid6"},
        "regions": regions,
        "links": links,
        "lanes": lanes,
        "intersections": intersections,
        "plans": plans,
        "demand": {
            "horizon_s": horizon_s,
            "warmup_s": 200.0,
            "seed": 1,
            "od": od,
        },
        "control": {},
    }
    if with_mfd:
        raw["mfd"] = {r: dict(p) for r, p in GRID6_MFD.items()}
    return raw


def _link(
    from_node: str,
    to_node: str,
    region: str,
    length: float = 250.0,
    cap: int = 25,
    sat: float = 0.5,
    lanes: int = 1,
    speed: float = 10.0,
) -> dict:
    return {
        "from": from_node,
        "to": to_node,
        "region": region,
        "length_m": float(length),
        "lanes": lanes,
        "free_speed_mps": speed,
        "sat_flow_veh_s": sat,
        "capacity_veh": cap,
    }


BUILTIN = {"corridor2": corridor2_document, "grid6": grid6_document}
