import functools
from collections import Counter

import numpy as np
import pytest
from scipy import sparse

from msjc import fixtures, jointctl, runner
from msjc.jointctl import ControlBounds, _Problem, route_bounds, solve
from msjc.macrodyn import MacroState
from msjc.routectl import CandidateRoute, VehicleRoutes

from oracles import (
    FractionMfd,
    completion_split,
    counted_routes,
    reference_route_bounds,
    step,
    targets,
    transfers,
    two_region_grid_search,
)

ADJ2 = {"R1": ("R2",), "R2": ("R1",)}
ADJ3 = {"R1": ("R2", "R3"), "R2": ("R1", "R3"), "R3": ("R1", "R2")}


def two_region_state(n, q=None):
    return MacroState(
        n=dict(n), q=dict(q or {}), t_macro_s=100.0,
        regions=("R1", "R2"), adjacency=ADJ2,
    )


def wide_bounds(c_pinned=True):
    big = 1e9
    return ControlBounds(
        m_min={("R1", "R2"): 0.0, ("R2", "R1"): 0.0},
        m_max={("R1", "R2"): big, ("R2", "R1"): big},
        c_min={("R1", "R2", "R2"): 1.0 if c_pinned else 0.0,
               ("R2", "R1", "R1"): 1.0 if c_pinned else 0.0},
        c_max={("R1", "R2", "R2"): 1.0, ("R2", "R1", "R1"): 1.0},
    )


def random_instance(rng):
    # Scaled so the stated oracle tolerance 1e-3*(1+|z*|) dominates the
    # 1e-3 gating grid's own quantization error (slope <= released stock).
    n = {
        ("R1", "R1"): float(rng.uniform(0, 300)),
        ("R1", "R2"): float(rng.uniform(5, 300)),
        ("R2", "R2"): float(rng.uniform(0, 300)),
        ("R2", "R1"): float(rng.uniform(5, 300)),
    }
    q = {
        ("R1", "R2"): float(rng.uniform(0, 30)),
        ("R2", "R1"): float(rng.uniform(0, 30)),
        ("R1", "R1"): float(rng.uniform(0, 30)),
        ("R2", "R2"): float(rng.uniform(0, 30)),
    }
    state = two_region_state(n, q)
    mfd = FractionMfd(
        {"R1": float(rng.uniform(0.1, 0.6)), "R2": float(rng.uniform(0.1, 0.6))},
        {"R1": float(rng.uniform(1000, 2000)), "R2": float(rng.uniform(1000, 2000))},
    )
    # achievable flow envelopes bracketing a random interior gating point
    k12 = state.n[("R1", "R2")] / state.accumulation("R1") * mfd.evaluate("R1", state.accumulation("R1"))
    k21 = state.n[("R2", "R1")] / state.accumulation("R2") * mfd.evaluate("R2", state.accumulation("R2"))
    mid12 = float(rng.uniform(0.2, 0.8)) * k12
    mid21 = float(rng.uniform(0.2, 0.8)) * k21
    bounds = ControlBounds(
        m_min={("R1", "R2"): mid12 * float(rng.uniform(0, 0.9)),
               ("R2", "R1"): mid21 * float(rng.uniform(0, 0.9))},
        m_max={("R1", "R2"): mid12 + (k12 - mid12) * float(rng.uniform(0.1, 1.0)),
               ("R2", "R1"): mid21 + (k21 - mid21) * float(rng.uniform(0.1, 1.0))},
        c_min={("R1", "R2", "R2"): 1.0, ("R2", "R1", "R1"): 1.0},
        c_max={("R1", "R2", "R2"): 1.0, ("R2", "R1", "R1"): 1.0},
    )
    return state, mfd, bounds


def three_region_instance(rng):
    # Three mutually adjacent regions: each boundary carries two destinations
    # and every split is free inside a random box around a feasible point.
    regions = ("R1", "R2", "R3")
    pairs = [(i, j) for i in regions for j in regions]
    state = MacroState(
        n={od: float(rng.uniform(5, 300)) for od in pairs},
        q={od: float(rng.uniform(0, 30)) for od in pairs},
        t_macro_s=100.0,
        regions=regions,
        adjacency=ADJ3,
    )
    mfd = FractionMfd(
        {r: float(rng.uniform(0.1, 0.6)) for r in regions},
        {r: float(rng.uniform(300, 900)) for r in regions},
    )
    c_min, c_max, c_ref = {}, {}, {}
    for (i, j) in pairs:
        if i == j:
            continue
        h1, h2 = ADJ3[i]
        lo = rng.uniform(0.0, 0.4, 2)
        hi = rng.uniform(0.6, 1.0, 2)
        for h, a, b in zip((h1, h2), lo, hi):
            c_min[(i, h, j)], c_max[(i, h, j)] = float(a), float(b)
        share = float(rng.uniform(max(lo[0], 1 - hi[1]), min(hi[0], 1 - lo[1])))
        c_ref[(i, h1, j)], c_ref[(i, h2, j)] = share, 1.0 - share
    keys = [(i, h) for i in regions for h in ADJ3[i]]
    b_ref = {k: float(rng.uniform(0.2, 0.8)) for k in keys}
    ref = transfers(state, mfd, b_ref, c_ref).m_boundary
    type1, _ = completion_split(state, mfd)
    top = {  # widest flow: gate open, every split at its cap
        (i, h): sum(c_max[(i, h, j)] * type1[(i, j)] for j in regions if j != i)
        / state.t_macro_s
        for (i, h) in keys
    }
    bounds = ControlBounds(
        m_min={k: ref[k] * float(rng.uniform(0, 0.9)) for k in keys},
        m_max={k: ref[k] + (top[k] - ref[k]) * float(rng.uniform(0.1, 1.0)) for k in keys},
        c_min=c_min,
        c_max=c_max,
    )
    return state, mfd, bounds


def unattainable_floor_instance():
    """A three-region instance with free splits whose R1 -> R2 flow floor
    is twice ``top``, the most R1 can send that way: gate open and every
    split of R1 sent to R2."""
    state, mfd, bounds = three_region_instance(np.random.default_rng(23))
    type1, _ = completion_split(state, mfd)
    top = sum(type1[("R1", j)] for j in ("R2", "R3")) / state.t_macro_s
    bounds = ControlBounds(
        m_min={k: 2.0 * top if k == ("R1", "R2") else 0.0 for k in bounds.m_min},
        m_max={k: 1e9 for k in bounds.m_max},
        c_min={k: 0.0 for k in bounds.c_min},
        c_max={k: 1.0 for k in bounds.c_max},
    )
    return state, mfd, bounds, top


def assert_certified(sol, solvers):
    """The solution attains the optima of its two LPs, each certified by its
    own duals: no feasible point has a lower z, and none within the z band
    has more total flow."""
    assert sol.feasible and len(solvers) == 2
    z_min, flow_max = certify(solvers[0]), -certify(solvers[1])
    assert sol.z <= z_min + 1e-7 * (1.0 + abs(sol.z))
    assert sum(sol.m.values()) >= flow_max - 1e-9


# (0, 400) and (1, 400) are grid6's first msjc steps, where many gatings
# share the minimal z while their total flows differ several-fold.
GRID6_WINDOWS = [(0, 400.0), (1, 400.0), (7001, 800.0), (7011, 400.0), (24, 1400.0)]

# Each window's optimum, (z, total boundary flow in veh/s), as an earlier
# solve found it by McCormick relaxation and fix-and-solve LPs.  Any exact
# solve of the program must find the same values.
GRID6_WINDOW_OPTIMA = {
    (0, 400.0): (-53.96046666566665, 2.127790000090001),
    (1, 400.0): (-46.94266666566667, 2.9929946667166667),
    (7001, 800.0): (-52.89999999899997, 2.8458320000900033),
    (7011, 400.0): (-49.87759999899999, 2.78768400007),
    (24, 1400.0): (-55.920199999000005, 1.50131600006),
}

FEAS_TOL = 1e-7  # HiGHS's default primal and dual feasibility tolerances
GAP_TOL = 1e-9  # times 1 + |objective|


@functools.cache
def grid6_window(seed, warmup_s):
    """The arguments of the one joint solve in a grid6 msjc run of one
    macro step after ``warmup_s``."""
    calls = []
    solve_ = jointctl.solve

    def recording(*args):
        calls.append(args)
        return solve_(*args)

    jointctl.solve = recording
    try:
        runner.run(
            fixtures.grid6(),
            runner.RunConfig("msjc", seed=seed, warmup_s=warmup_s, cap_s=warmup_s + 100.0),
        )
    finally:
        jointctl.solve = solve_
    [args] = calls
    return args


@pytest.fixture
def solvers(monkeypatch):
    """Every HiGHS instance that ``jointctl`` runs while the test runs, once
    per ``run`` call, in order."""
    ran = []

    class Recorded(jointctl.highs._Highs):
        def run(self):
            ran.append(self)
            return super().run()

    monkeypatch.setattr(jointctl.highs, "_Highs", Recorded)
    return ran


def certify(solver) -> float:
    """Certify from its own point and duals that ``solver``, a HiGHS
    instance after ``run``, holds an optimum of the LP it was given: primal
    feasibility, the dual sign conditions, complementary slackness and a
    zero duality gap.  Returns the optimum.

    In HiGHS's form the LP minimizes c @ x subject to L <= A @ x <= U and
    l <= x <= u; the row duals are y and the reduced costs c - A.T @ y.  A
    positive dual prices a lower bound and a negative one an upper bound.
    """
    lp, sol = solver.getLp(), solver.getSolution()
    assert solver.getModelStatus() == jointctl.highs.HighsModelStatus.kOptimal
    assert sol.value_valid and sol.dual_valid
    matrix = lp.a_matrix_
    a = sparse.csc_array(
        (matrix.value_, matrix.index_, matrix.start_), shape=(lp.num_row_, lp.num_col_)
    )
    c, x, y = np.array(lp.col_cost_), np.array(sol.col_value), np.array(sol.row_dual)
    # rows, then columns: activity, bounds and dual
    act = np.concatenate([a @ x, x])
    lo = np.concatenate([lp.row_lower_, lp.col_lower_])
    hi = np.concatenate([lp.row_upper_, lp.col_upper_])
    dual = np.concatenate([y, c - a.T @ y])
    assert np.all(act >= lo - FEAS_TOL) and np.all(act <= hi + FEAS_TOL), "primal infeasible"
    assert np.all(dual[np.isinf(lo)] <= FEAS_TOL), "a dual prices an infinite lower bound"
    assert np.all(dual[np.isinf(hi)] >= -FEAS_TOL), "a dual prices an infinite upper bound"
    up, down = np.maximum(dual, 0.0), np.maximum(-dual, 0.0)
    lo, hi = np.where(np.isinf(lo), 0.0, lo), np.where(np.isinf(hi), 0.0, hi)
    objective = float(c @ x)
    tol = GAP_TOL * (1.0 + abs(objective))
    slack = np.concatenate([up * (act - lo), down * (hi - act)])
    assert np.all(np.abs(slack) <= tol), "complementary slackness"
    assert abs(objective - (up @ lo - down @ hi)) <= tol, "duality gap"
    return objective


def sample_feasible_controls(rng, state, mfd, bounds):
    """A random (b, c) inside the split boxes and flow envelopes, or None.
    Each OD has one or two next regions; a boundary's flow is its gating
    fraction times the flow with the gate open."""
    c = {}
    for (i, j) in state.n:
        if i == j:
            continue
        hs = state.adjacency[i]
        if len(hs) == 1:
            c[(i, hs[0], j)] = 1.0
            continue
        lo = max(bounds.c_min[(i, hs[0], j)], 1.0 - bounds.c_max[(i, hs[1], j)])
        hi = min(bounds.c_max[(i, hs[0], j)], 1.0 - bounds.c_min[(i, hs[1], j)])
        c[(i, hs[0], j)] = float(rng.uniform(lo, hi))
        c[(i, hs[1], j)] = 1.0 - c[(i, hs[0], j)]
    gates = {(i, h): 1.0 for i in state.regions for h in state.adjacency[i]}
    open_flow = transfers(state, mfd, gates, c).m_boundary
    b = {}
    for key, flow in open_flow.items():
        lo, hi = bounds.m_min[key] / flow, min(1.0, bounds.m_max[key] / flow)
        if lo > hi:
            return None
        b[key] = float(rng.uniform(lo, hi))
    return b, c


def route_bounds_of(candidates, adjacency):
    """``route_bounds`` on the route tables of one vehicle per entry of
    ``candidates`` ((origin, destination) -> per vehicle, the next regions of
    its one or two candidates)."""
    routes = [
        VehicleRoutes(0, i, j, tuple(CandidateRoute(("L",), h, None) for h in next_regions))
        for (i, j), per_vehicle in candidates.items()
        for next_regions in per_vehicle
    ]
    tables = counted_routes(routes)
    return route_bounds(tables.counts, tables.choices, adjacency)


class TestRouteBounds:
    def test_sole_next_region_pins_to_one(self):
        c_min, c_max = route_bounds_of({("R1", "R3"): [("R2",)] * 4}, {"R1": ("R2",)})
        assert c_min[("R1", "R2", "R3")] == 1.0
        assert c_max[("R1", "R2", "R3")] == 1.0

    def test_mixed_candidate_sets(self):
        candidates = {("i", "j"): [("h",)] * 6 + [("h", "g")] * 2 + [("g", "h"), ("g",)]}
        c_min, c_max = route_bounds_of(candidates, {"i": ("g", "h")})
        assert c_max[("i", "h", "j")] == pytest.approx(0.9)
        assert c_min[("i", "h", "j")] == pytest.approx(0.6)
        assert c_max[("i", "g", "j")] == pytest.approx(0.4)
        assert c_min[("i", "g", "j")] == pytest.approx(0.1)

    def test_counts_match_the_per_vehicle_formula(self):
        # a vehicle's two candidates may go via one region: its set is that
        # region alone
        rng = np.random.default_rng(4)
        adjacency = {"i": ("g", "h", "k"), "m": ("i", "k")}
        for _ in range(50):
            candidates = {}
            for _ in range(int(rng.integers(1, 40))):
                i = str(rng.choice(["i", "m"]))
                j = str(rng.choice(["x", "y", i]))
                next_regions = tuple(rng.choice(adjacency[i], int(rng.integers(1, 3))))
                candidates.setdefault((i, j), []).append(next_regions)
            sets = {
                (i, j): [frozenset(hs) for hs in per_vehicle]
                for (i, j), per_vehicle in candidates.items()
                if i != j
            }
            assert route_bounds_of(candidates, adjacency) == reference_route_bounds(sets, adjacency)


class TestSolve:
    def test_empty_network_hits_spare_capacity_of_largest_region(self):
        state = two_region_state({})
        mfd = FractionMfd({"R1": 0.5, "R2": 0.5}, {"R1": 1000.0, "R2": 2000.0})
        sol = solve(state, mfd, wide_bounds())
        assert sol.z == pytest.approx(-1000.0, abs=1e-9)
        assert sol.feasible
        assert sol.b[("R1", "R2")] == 1.0  # empty senders are pinned open

    def test_congested_sender_opens_gate_starved_receiver_closes_it(self):
        # R1 over critical, R2 far under: push out of R1 at the envelope max,
        # restrict inflow into R1 at the envelope min.
        state = two_region_state(
            {("R1", "R2"): 500.0, ("R1", "R1"): 100.0, ("R2", "R1"): 100.0, ("R2", "R2"): 50.0}
        )
        mfd = FractionMfd({"R1": 0.4, "R2": 0.4}, {"R1": 300.0, "R2": 3000.0})
        k12 = 500.0 / 600.0 * mfd.evaluate("R1", 600.0)
        k21 = 100.0 / 150.0 * mfd.evaluate("R2", 150.0)
        bounds = ControlBounds(
            m_min={("R1", "R2"): 0.1 * k12, ("R2", "R1"): 0.1 * k21},
            m_max={("R1", "R2"): 0.9 * k12, ("R2", "R1"): 0.9 * k21},
            c_min={("R1", "R2", "R2"): 1.0, ("R2", "R1", "R1"): 1.0},
            c_max={("R1", "R2", "R2"): 1.0, ("R2", "R1", "R1"): 1.0},
        )
        sol = solve(state, mfd, bounds)
        assert sol.feasible
        assert sol.m[("R1", "R2")] == pytest.approx(0.9 * k12, rel=1e-6)
        assert sol.m[("R2", "R1")] == pytest.approx(0.1 * k21, rel=1e-6)

    def test_pinned_splits_come_back_exactly(self):
        state = two_region_state({("R1", "R2"): 100.0, ("R2", "R1"): 80.0})
        mfd = FractionMfd({"R1": 0.5, "R2": 0.5}, {"R1": 200.0, "R2": 200.0})
        sol = solve(state, mfd, wide_bounds())
        assert sol.c[("R1", "R2", "R2")] == 1.0
        assert sol.c[("R2", "R1", "R1")] == 1.0

    def test_objective_is_tight_max_overshoot(self):
        for instance, seed in ((random_instance, 4), (three_region_instance, 5)):
            rng = np.random.default_rng(seed)
            for _ in range(20):
                state, mfd, bounds = instance(rng)
                sol = solve(state, mfd, bounds)
                nxt = step(state, mfd, sol.b, sol.c, state.q)
                overshoot = max(
                    nxt.accumulation(r) - mfd.critical(r) for r in state.regions
                )
                assert sol.z == pytest.approx(overshoot, abs=1e-9)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(100)
        for _ in range(10):
            state, mfd, bounds = random_instance(rng)
            sol = solve(state, mfd, bounds)
            z_star, *_ = two_region_grid_search(state, mfd, bounds)
            assert sol.feasible
            assert sol.residual <= 1e-6
            assert abs(sol.z - z_star) <= 1e-3 * (1.0 + abs(z_star))

    def test_matches_refined_oracle_tightly(self):
        rng = np.random.default_rng(200)
        for _ in range(10):
            state, mfd, bounds = random_instance(rng)
            sol = solve(state, mfd, bounds)
            z_star, *_ = two_region_grid_search(state, mfd, bounds, refine=True)
            assert abs(sol.z - z_star) <= 1e-6 * (1.0 + abs(z_star))

    def test_random_instances_reach_both_bounds(self, solvers):
        for instance, seed, count in ((random_instance, 21, 5), (three_region_instance, 22, 20)):
            rng = np.random.default_rng(seed)
            for _ in range(count):
                args = instance(rng)
                solvers.clear()
                assert_certified(solve(*args), solvers)

    def test_infeasible_split_bounds_flagged(self):
        state = two_region_state({("R1", "R2"): 100.0})
        mfd = FractionMfd({"R1": 0.5, "R2": 0.5}, {"R1": 200.0, "R2": 200.0})
        bounds = ControlBounds(
            m_min={("R1", "R2"): 0.0, ("R2", "R1"): 0.0},
            m_max={("R1", "R2"): 1e9, ("R2", "R1"): 1e9},
            c_min={("R1", "R2", "R2"): 1.2},
            c_max={("R1", "R2", "R2"): 1.5},
        )
        sol = solve(state, mfd, bounds)
        assert not sol.feasible
        assert "c_min" in sol.message or "> 1" in sol.message
        assert sol.c[("R1", "R2", "R2")] == 1.0  # a valid split, outside the box

    @pytest.mark.parametrize(
        "bound, reason",
        [
            ("c_max", "sum of c_max for OD ('R1', 'R3') is 0.5000 < 1"),
            ("m_min", "flow bounds for boundary ('R1', 'R2') are inverted"),
        ],
    )
    def test_invalid_bounds_named(self, solvers, bound, reason):
        # either makes stage 1 infeasible; the elastic LP relieves only the
        # envelopes, so with splits that cannot sum to 1 the gates open
        state, mfd, bounds = three_region_instance(np.random.default_rng(6))
        if bound == "c_max":
            bounds.c_max.update({("R1", "R2", "R3"): 0.25, ("R1", "R3", "R3"): 0.25})
        else:
            bounds.m_min[("R1", "R2")] = bounds.m_max[("R1", "R2")] + 0.1
        sol = solve(state, mfd, bounds)
        assert not sol.feasible and sol.message.startswith(reason)
        assert len(solvers) == 2
        assert solvers[0].getModelStatus() != jointctl.highs.HighsModelStatus.kOptimal
        if bound == "c_max":
            assert all(b == 1.0 for b in sol.b.values())
            assert sol.c[("R1", "R2", "R3")] == sol.c[("R1", "R3", "R3")] == 0.5
        else:
            assert certify(solvers[1]) == pytest.approx(0.05, rel=1e-9)

    def test_unattainable_flow_floor_returns_least_infeasible(self):
        state = two_region_state({("R1", "R2"): 10.0, ("R2", "R1"): 10.0})
        mfd = FractionMfd({"R1": 0.2, "R2": 0.2}, {"R1": 200.0, "R2": 200.0})
        k12 = 10.0 / 10.0 * mfd.evaluate("R1", 10.0)
        bounds = ControlBounds(
            m_min={("R1", "R2"): 10.0 * k12, ("R2", "R1"): 0.0},  # 10x the max
            m_max={("R1", "R2"): 20.0 * k12, ("R2", "R1"): 1e9},
            c_min={("R1", "R2", "R2"): 1.0, ("R2", "R1", "R1"): 1.0},
            c_max={("R1", "R2", "R2"): 1.0, ("R2", "R1", "R1"): 1.0},
        )
        sol = solve(state, mfd, bounds)
        assert not sol.feasible
        assert sol.residual > 1e-6
        assert sol.b[("R1", "R2")] == pytest.approx(1.0)  # pushed to the wall

    def test_unattainable_flow_floor_with_free_splits(self):
        state, mfd, bounds, top = unattainable_floor_instance()
        sol = solve(state, mfd, bounds)
        assert not sol.feasible
        for (i, j) in state.n:
            if i != j:
                assert sum(sol.c[(i, h, j)] for h in ADJ3[i]) == pytest.approx(1.0)
        assert sol.residual == pytest.approx(top, rel=1e-6)

    @pytest.mark.parametrize("seed, warmup_s", GRID6_WINDOWS)
    def test_grid6_window_reaches_both_bounds(self, solvers, seed, warmup_s):
        args = grid6_window(seed, warmup_s)
        solvers.clear()
        assert_certified(solve(*args), solvers)

    @pytest.mark.parametrize("seed, warmup_s", GRID6_WINDOWS)
    def test_grid6_window_keeps_its_optimum(self, seed, warmup_s):
        sol = solve(*grid6_window(seed, warmup_s))
        z, flow = GRID6_WINDOW_OPTIMA[(seed, warmup_s)]
        assert abs(sol.z - z) <= 1e-7 * (1.0 + abs(z))
        assert abs(sum(sol.m.values()) - flow) <= 1e-9

    def test_inactive_od_reports_uniform_split(self):
        state = MacroState(
            n={("R1", "R3"): 0.0, ("R1", "R1"): 50.0, ("R2", "R2"): 10.0},
            q={},
            t_macro_s=100.0,
            regions=("R1", "R2", "R3"),
            adjacency={"R1": ("R2", "R3"), "R2": ("R1", "R3"), "R3": ("R1", "R2")},
        )
        mfd = FractionMfd(
            {"R1": 0.5, "R2": 0.5, "R3": 0.5},
            {"R1": 100.0, "R2": 100.0, "R3": 100.0},
        )
        keys = [(i, h) for i in state.regions for h in state.adjacency[i]]
        bounds = ControlBounds(
            m_min={k: 0.0 for k in keys},
            m_max={k: 1e9 for k in keys},
            c_min={},
            c_max={},
        )
        sol = solve(state, mfd, bounds)
        assert sol.c[("R1", "R2", "R3")] == pytest.approx(0.5)
        assert sol.c[("R1", "R3", "R3")] == pytest.approx(0.5)


class TestTargets:
    def test_zero_gating_zero_targets(self):
        state = two_region_state({("R1", "R2"): 100.0, ("R2", "R1"): 50.0})
        mfd = FractionMfd({"R1": 0.5, "R2": 0.5}, {"R1": 200.0, "R2": 200.0})
        sol = solve(state, mfd, wide_bounds())
        sol.b = {k: 0.0 for k in sol.b}
        m = targets(sol, state, mfd)
        assert all(v == 0.0 for v in m.values())

    def test_passthrough_equals_released_flow(self):
        state = two_region_state({("R1", "R2"): 100.0})
        mfd = FractionMfd({"R1": 0.5, "R2": 0.5}, {"R1": 200.0, "R2": 200.0})
        sol = solve(state, mfd, wide_bounds())
        sol.b = {k: 1.0 for k in sol.b}
        m = targets(sol, state, mfd)
        type1, _ = completion_split(state, mfd)
        assert m[("R1", "R2")] == pytest.approx(type1[("R1", "R2")] / 100.0)

    def test_targets_agree_with_solver_flows(self):
        for instance, seed in ((random_instance, 31), (three_region_instance, 32)):
            rng = np.random.default_rng(seed)
            for _ in range(10):
                state, mfd, bounds = instance(rng)
                sol = solve(state, mfd, bounds)
                m = targets(sol, state, mfd)
                for key, value in sol.m.items():
                    assert value == pytest.approx(m[key], abs=1e-9)
                for key in m:
                    assert m[key] >= bounds.m_min[key] - 1e-6
                    assert m[key] <= bounds.m_max[key] + 1e-6


class TestCertificate:
    """``solve`` runs two LPs, each certified optimal by its own duals."""

    def test_random_instances(self, solvers):
        for instance, seed, count in ((random_instance, 71, 5), (three_region_instance, 72, 20)):
            rng = np.random.default_rng(seed)
            for _ in range(count):
                args = instance(rng)
                solvers.clear()
                assert solve(*args).feasible
                assert len(solvers) == 2
                for solver in solvers:
                    certify(solver)

    @pytest.mark.parametrize("seed, warmup_s", GRID6_WINDOWS)
    def test_grid6_window(self, solvers, seed, warmup_s):
        args = grid6_window(seed, warmup_s)
        solvers.clear()
        assert solve(*args).feasible
        assert len(solvers) == 2
        for solver in solvers:
            certify(solver)

    def test_infeasible_stage_one_then_the_elastic_lp(self, solvers):
        # The elastic LP is stage 1's LP with the envelope slack freed, so
        # its certified minimum slack above 0 certifies stage 1 infeasible.
        state, mfd, bounds, _ = unattainable_floor_instance()
        sol = solve(state, mfd, bounds)
        assert not sol.feasible and sol.message == "joint LP: Infeasible"
        assert len(solvers) == 2
        assert solvers[0].getModelStatus() == jointctl.highs.HighsModelStatus.kInfeasible
        assert certify(solvers[1]) > 1e-3

    def test_refused_model_is_reported_not_run(self, solvers):
        # HiGHS refuses a model with a NaN bound, and run() would crash on it
        state, mfd, bounds = three_region_instance(np.random.default_rng(5))
        bounds.m_min[("R1", "R2")] = np.nan
        sol = solve(state, mfd, bounds)
        assert not sol.feasible and sol.message == "joint LP: Model error"
        assert solvers == []
        assert all(b == 1.0 for b in sol.b.values())  # gates open, each OD split evenly
        assert all(v == 0.5 for v in sol.c.values())


class TestGates:
    def test_gates_let_the_flows_through(self):
        # b = t * m / capacity, clipped to [0, 1], where a gate wide open lets
        # through its capacity, sum_j c_ihj * kappa_ij vehicles.  A gate with
        # no capacity is open, as nothing moves either way, even when asked
        # for a flow (within the LP's tolerance).
        problem = _Problem(*three_region_instance(np.random.default_rng(9)))
        c = np.array([0.0 if (i, h) == ("R1", "R2") else 0.5 for i, h, j in problem.c_keys])
        capacity = dict.fromkeys(problem.b_keys, 0.0)
        for (i, h, j), split, kappa in zip(problem.c_keys, c, problem.kappa):
            capacity[(i, h)] += split * kappa
        share = np.linspace(0.0, 1.5, problem.nb)  # of each gate's capacity
        m = share * np.array(list(capacity.values())) / problem.t
        m[problem.b_keys.index(("R1", "R2"))] = 1e-9
        b, flows = problem.gates(m, c)
        for n, key in enumerate(problem.b_keys):
            if key == ("R1", "R2"):
                assert (capacity[key], b[n], flows[n]) == (0.0, 1.0, 0.0)
            else:
                assert b[n] == pytest.approx(min(share[n], 1.0), rel=1e-12)
                assert flows[n] == pytest.approx(b[n] * capacity[key] / problem.t, rel=1e-12)

    def test_zero_capacity_gate_in_a_solve(self):
        # every split of R1 pinned to R3: the gate R1 -> R2 can pass nothing
        state, mfd, bounds = three_region_instance(np.random.default_rng(9))
        bounds.m_min[("R1", "R2")] = 0.0
        for (i, h, j) in bounds.c_min:
            if i == "R1":
                bounds.c_min[(i, h, j)] = bounds.c_max[(i, h, j)] = float(h == "R3")
        sol = solve(state, mfd, bounds)
        assert sol.feasible
        assert (sol.b[("R1", "R2")], sol.m[("R1", "R2")]) == (1.0, 0.0)
        assert all(0.0 <= b <= 1.0 for b in sol.b.values())
        moved = transfers(state, mfd, sol.b, sol.c).m_boundary
        assert moved == pytest.approx(sol.m, rel=1e-12, abs=1e-15)


class TestOptimum:
    def test_optimum_holds_at_sampled_feasible_points(self):
        # Checked apart from the solver: overshoot and flow of each sampled
        # point come from the macro bookkeeping.  No sample has a lower z
        # than the solution, and no sample carries more flow than the
        # stage-2 LP at the sample's own z, or than the solution when the
        # sample is within the solution's z.  The solution's own point is a
        # sample too.
        for instance, seed in ((random_instance, 51), (three_region_instance, 52)):
            rng = np.random.default_rng(seed)
            for _ in range(5):
                state, mfd, bounds = instance(rng)
                sol = solve(state, mfd, bounds)
                problem = _Problem(state, mfd, bounds)
                samples = [sample_feasible_controls(rng, state, mfd, bounds) for _ in range(20)]
                for b, c in [s for s in samples if s is not None] + [(sol.b, sol.c)]:
                    nxt = step(state, mfd, b, c, state.q)
                    z = max(nxt.accumulation(r) - mfd.critical(r) for r in state.regions)
                    flow = sum(transfers(state, mfd, b, c).m_boundary.values())
                    assert sol.z <= z + 1e-9 * (1.0 + abs(z))
                    x, _ = problem.minimize(z + 1e-9)
                    assert x[: problem.nb].sum() >= flow - 1e-9
                    if z <= sol.z:
                        assert sum(sol.m.values()) >= flow - 1e-9
