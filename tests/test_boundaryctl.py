from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from msjc import boundaryctl, fixtures
from msjc.boundaryctl import BoundaryController, plan_weights
from msjc.mesosim import MicroObservation
from msjc.netmodel import ControlConfig, PlanLanes

from oracles import ReferenceController, plan_flow, plan_weight

FWD, REV = ("R1", "R2"), ("R2", "R1")


def mkobs(queues=None, ng=None, crossings=None, dt=10.0, step=1):
    return MicroObservation(
        step=step,
        time_s=step * dt,
        dt_s=dt,
        queues=dict(queues or {}),
        boundary_crossings=dict(crossings or {}),
        non_gating_crossings=dict(ng or {}),
        accumulation={},
        completed=0,
        completions_by_region={},
        admitted_od={},
        entry_queue=0,
        in_network=0,
    )


@pytest.fixture
def lane_controller(monkeypatch):
    """Controller factory for one boundary R1|R2 whose plans are the keys of
    ``crossing``, each mapped to its (forward, reverse) crossing lanes.  The
    per-step numbers are set outright: ``lane_flows`` gives each lane's flow
    in ``flows`` (veh/s) times the step length, and ``plan_weights`` each
    plan's entry in ``weights`` (default 0), so a test sets exactly what the
    plan rule sums and ranks.  ``history`` is a list of realized (forward,
    reverse) flows recorded before the test's step."""

    def make(
        crossing, flows, weights=None, targets=(0.0, 0.0), history=(), control=ControlConfig()
    ):
        weights = weights or {}
        every = tuple(sorted({l for pair in crossing.values() for lanes in pair for l in lanes}))
        lanes = PlanLanes(tuple(crossing), tuple(crossing.values()), ((),) * len(crossing), every, ())
        net = SimpleNamespace(plan_lanes={FWD: lanes})
        monkeypatch.setattr(
            boundaryctl,
            "lane_flows",
            lambda lanes, obs, arrivals, net: {l: flows[l] * obs.dt_s for l in lanes},
        )
        monkeypatch.setattr(
            boundaryctl,
            "plan_weights",
            lambda lanes, obs, net: [weights.get(pid, 0.0) for pid in crossing],
        )
        bc = BoundaryController(net, FWD, control)
        bc.begin_macro(*targets)
        for fwd, rev in history:
            bc.control_step(mkobs(), {})
            bc.record_realized(mkobs(crossings={FWD: fwd, REV: rev}))
        return bc

    return make


@pytest.fixture
def table_controller(lane_controller):
    """Controller factory for one boundary R1|R2 whose plans are the keys of
    ``estimates``: each plan crosses on one lane of its own per direction,
    with the plan's (forward, reverse) flows, and weighs its entry in
    ``weights`` (default 0)."""

    def make(estimates, weights=None, **kwargs):
        crossing = {pid: ((f"{pid}>",), (f"{pid}<",)) for pid in estimates}
        flows = {}
        for pid, (fwd, rev) in estimates.items():
            flows[f"{pid}>"], flows[f"{pid}<"] = fwd, rev
        return lane_controller(crossing, flows, weights, **kwargs)

    return make


def inside_band(make, estimates, obs, **kwargs):
    """Plans the controller counts as inside the band, found one plan at a
    time; the full plan set must count as many."""
    inside = []
    for pid, est in estimates.items():
        bc = make({pid: est}, **kwargs)
        bc.control_step(obs, {})
        if not bc.last_decision.fallback:
            inside.append(pid)
    bc = make(estimates, **kwargs)
    bc.control_step(obs, {})
    assert bc.last_decision.feasible_count == len(inside)
    assert bc.last_decision.fallback == (not inside)
    return inside


class TestExpectedRate:
    def expected_after(self, make, target, history):
        bc = make({"only": (0.0, 0.0)}, targets=(target, 0.0), history=history)
        bc.control_step(mkobs(), {})
        assert bc.last_decision.k == len(history) + 1
        return bc.last_decision.m_expected_fwd

    def test_first_step_equals_macro_target(self, table_controller):
        assert self.expected_after(table_controller, 0.5, []) == pytest.approx(0.5)

    def test_compensation_arithmetic(self, table_controller):
        # target 0.5 veh/s, first step realized 1.0 -> (50 - 10) / 90
        m = self.expected_after(table_controller, 0.5, [(1.0, 0.0)])
        assert m == pytest.approx(40.0 / 90.0)

    def test_on_track_history_keeps_rate_constant(self, table_controller):
        bc = table_controller({"only": (0.0, 0.0)}, targets=(0.5, 0.0))
        for k in range(1, 11):
            bc.control_step(mkobs(), {})
            rate = bc.last_decision.m_expected_fwd
            assert bc.last_decision.k == k
            assert rate == pytest.approx(0.5)
            bc.record_realized(mkobs(crossings={FWD: rate}))

    def test_realized_flow_adds_left_to_right(self, table_controller):
        # 20 steps of 10 s; ten realized at 0.1 veh/s add to
        # 0.9999999999999999 left to right, where Python 3.12's compensated
        # sum() gives 1.0 and so nothing more expected (a zero-rate band)
        control = ControlConfig(t_macro_s=200.0)
        bc = table_controller(
            {"only": (0.0, 0.0)}, targets=(0.05, 0.0), history=[(0.1, 0.0)] * 10, control=control
        )
        assert bc.realized == [0.9999999999999999, 0.0]
        bc.control_step(mkobs(), {})
        assert bc.last_decision.k == 11
        assert bc.last_decision.m_expected_fwd == (10.0 - 9.999999999999998) / 100.0 > 0.0

    def test_overshoot_floors_at_zero(self, table_controller):
        # (10 - 12) / 80 < 0: nothing more is expected this macro step
        m = self.expected_after(table_controller, 0.1, [(0.6, 0.0), (0.6, 0.0)])
        assert m == 0.0


class TestFeasiblePlans:
    def test_band_arithmetic_at_last_step(self, table_controller):
        # u = k = 10 -> tolerance 1 * sigma = 0.125; m = 0.5, ng = 0.125, so
        # the estimate must lie strictly inside (0.3125, 0.4375).  Every
        # number is exact in binary, so the edges are exactly on the band.
        estimates = {
            "low": (0.0, 0.0),
            "edge_lo": (0.3125, 0.0),
            "just_in_lo": (0.3126, 0.0),
            "center": (0.375, 0.0),
            "just_in_hi": (0.4374, 0.0),
            "edge_hi": (0.4375, 0.0),
            "high": (0.6, 0.0),
        }
        got = inside_band(
            table_controller,
            estimates,
            mkobs(ng={FWD: 0.125}),
            targets=(0.5, 0.0),
            history=[(0.5, 0.0)] * 9,
            control=ControlConfig(sigma=0.125),
        )
        assert got == ["just_in_lo", "center", "just_in_hi"]

    def test_first_step_tolerance_is_total(self, table_controller):
        # (u-k+1)*sigma = 1.0: anything strictly inside (0, 2m) passes
        estimates = {
            "zero": (0.0, 0.0),
            "tiny": (0.01, 0.0),
            "double": (0.99, 0.0),
            "twice": (1.0, 0.0),
        }
        got = inside_band(table_controller, estimates, mkobs(), targets=(0.5, 0.0))
        assert got == ["tiny", "double"]

    def test_nothing_expected_admits_flows_below_sigma_abs(self, table_controller):
        # with m = 0 the band is flow < sigma_abs = 0.05, edge excluded, in
        # either direction
        estimates = {
            "idle": (0.0, 0.0),
            "trickle": (0.0499, 0.0),
            "edge": (0.05, 0.0),
            "trickle_rev": (0.0, 0.0499),
            "edge_rev": (0.0, 0.05),
        }
        got = inside_band(table_controller, estimates, mkobs())
        assert got == ["idle", "trickle", "trickle_rev"]

    def test_exact_estimates_make_every_plan_feasible(self, table_controller):
        estimates = {f"s{i}": (0.4, 0.2) for i in range(4)}
        bc = table_controller(estimates, targets=(0.4, 0.2), history=[(0.4, 0.2)] * 4)
        assert bc.control_step(mkobs(), {}) == "s0"
        assert not bc.last_decision.fallback
        assert bc.last_decision.feasible_count == 4

    def test_reverse_direction_must_pass_too(self, table_controller):
        estimates = {"ok": (0.4, 0.0), "pushy": (0.4, 0.3)}
        bc = table_controller(estimates, weights={"pushy": 5.0}, targets=(0.4, 0.0))
        assert bc.control_step(mkobs(), {}) == "ok"
        assert bc.last_decision.feasible_count == 1


class TestFlowBounds:
    def test_envelope_arithmetic(self, table_controller):
        bc = table_controller({"a": (0.2, 0.1), "b": (0.6, 0.0)})
        fwd, rev = bc.macro_flow_bounds(mkobs(ng={FWD: 0.1, REV: 0.05}), {})
        assert fwd == (pytest.approx(0.3), pytest.approx(0.7))
        assert rev == (pytest.approx(0.05), pytest.approx(0.15))

    def test_single_plan_collapses(self, table_controller):
        (lo, hi), _ = table_controller({"only": (0.4, 0.0)}).macro_flow_bounds(mkobs(), {})
        assert lo == hi == pytest.approx(0.4)

    def test_all_zero_traffic(self, single_gate):
        bc = BoundaryController(single_gate.network, FWD, ControlConfig())
        assert bc.macro_flow_bounds(mkobs(), {}) == ((0.0, 0.0), (0.0, 0.0))


def flow_of(net, plan_id, obs, arrivals, direction=FWD):
    """The controller's estimated flow of one plan across ``direction``."""
    bc = BoundaryController(net, FWD, ControlConfig())
    index = bc.plan_lanes.ids.index(plan_id)
    return bc.plan_flows(obs, arrivals)[index][bc.directions.index(direction)]


def weight_of(net, plan_id, obs):
    """A plan's backpressure weight among its boundary's plans."""
    lanes = net.plan_lanes[FWD]
    return plan_weights(lanes, obs, net)[lanes.ids.index(plan_id)]


class TestPlanFlow:
    def test_min_rule_downstream_space_binds(self, single_gate):
        net = single_gate.network
        obs = mkobs(queues={"A_0": 4, "B_0": 7})
        # min(arrivals 4, saturation 0.3 * 10 = 3, space 10 - 7 = 3) = 3 -> 0.3
        assert flow_of(net, "fwd", obs, {"A_0": 4.0}) == pytest.approx(0.3)

    def test_min_rule_arrivals_bind(self, single_gate):
        net = single_gate.network
        obs = mkobs(queues={"B_0": 7})
        assert flow_of(net, "fwd", obs, {"A_0": 2.0}) == pytest.approx(0.2)

    def test_plan_without_crossing_lanes_estimates_zero(self, single_gate):
        net = single_gate.network
        assert flow_of(net, "rev", mkobs(), {"A_0": 5.0}) == 0.0

    def test_saturation_caps_huge_arrivals(self, single_gate):
        net = single_gate.network
        assert flow_of(net, "fwd", mkobs(), {"A_0": 500.0}) == pytest.approx(0.3)

    def test_monotone_in_arrivals_and_downstream_queues(self, single_gate):
        net = single_gate.network
        rng = np.random.default_rng(3)
        for _ in range(100):
            e = float(rng.uniform(0, 6))
            q = int(rng.integers(0, 10))
            base = flow_of(net, "fwd", mkobs(queues={"B_0": q}), {"A_0": e})
            more_e = flow_of(net, "fwd", mkobs(queues={"B_0": q}), {"A_0": e + 1})
            more_q = flow_of(net, "fwd", mkobs(queues={"B_0": q + 1}), {"A_0": e})
            assert more_e >= base - 1e-12
            assert more_q <= base + 1e-12

    def test_plans_sharing_a_lane_get_its_one_term(self, two_gate):
        # every plan's flows, from one table of lane terms, are the
        # per-plan reference's bit for bit
        net = two_gate.network
        rng = np.random.default_rng(11)
        bc = BoundaryController(net, FWD, ControlConfig())
        lanes = net.plan_lanes[FWD]
        shared = Counter(l for pair in lanes.crossing for ls in pair for l in ls)
        assert max(shared.values()) > 1
        for _ in range(50):
            queues = {l: int(rng.integers(0, 12)) for l in net.lanes}
            arrivals = {l: float(rng.uniform(0, 6)) for l in net.lanes}
            obs = mkobs(queues=queues)
            assert bc.plan_flows(obs, arrivals) == [
                tuple(plan_flow(g, obs, arrivals, net, d) for d in bc.directions)
                for g in lanes.green
            ]
            assert plan_weights(lanes, obs, net) == [plan_weight(g, obs, net) for g in lanes.green]


class TestPressure:
    def test_zero_queues_zero_weight(self, single_gate):
        net = single_gate.network
        assert weight_of(net, "fwd", mkobs()) == 0.0

    def test_pressure_arithmetic(self, single_gate):
        net = single_gate.network
        obs = mkobs(queues={"A_0": 5, "B_0": 2})
        assert weight_of(net, "fwd", obs) == pytest.approx((5 - 2) * 0.3)

    def test_congested_downstream_goes_negative(self, single_gate):
        net = single_gate.network
        obs = mkobs(queues={"A_0": 1, "B_0": 9})
        assert weight_of(net, "fwd", obs) == pytest.approx((1 - 9) * 0.3)

    def test_plan_weight_sums_phases(self, single_gate):
        net = single_gate.network
        obs = mkobs(queues={"A_0": 5, "Rv_0": 3})
        assert weight_of(net, "both", obs) == pytest.approx(5 * 0.3 + 3 * 0.3)

    def test_plan_weight_counts_both_gating_nodes(self, two_gate):
        net = two_gate.network
        obs = mkobs(queues={"A_0": 5, "C_0": 4, "Rv_0": 3, "Sv_0": 2, "D_0": 1})
        lanes = net.plan_lanes[FWD]
        assert dict(zip(lanes.ids, plan_weights(lanes, obs, net))) == pytest.approx(
            {"fwd": (5 + 4 - 1) * 0.3, "mixed": (5 + 2) * 0.3, "rev": (3 + 2) * 0.3}
        )


class TestSelectPlan:
    # With target 0.4 forward and 0 reverse at k = 1, a plan is inside the
    # band with estimates IN and outside with OUT (forward deviation 2).
    IN, OUT = (0.4, 0.0), (1.2, 0.0)

    def test_singleton_feasible_set(self, table_controller):
        estimates = {"s0": self.OUT, "s1": self.IN, "s2": self.OUT}
        bc = table_controller(estimates, weights={"s1": -3.0, "s2": 5.0}, targets=(0.4, 0.0))
        assert bc.control_step(mkobs(), {}) == "s1"
        assert not bc.last_decision.fallback
        assert bc.last_decision.feasible_count == 1

    def test_matches_brute_force_argmax(self, table_controller):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            order = [f"s{i}" for i in range(n)]
            weights = {pid: float(rng.integers(-3, 4)) for pid in order}
            feasible = [pid for pid in order if rng.random() < 0.7] or order
            estimates = {pid: self.IN if pid in feasible else self.OUT for pid in order}
            # independent oracle: linear scan keeping the first maximum
            best = None
            for pid in feasible:
                if best is None or weights[pid] > weights[best]:
                    best = pid
            bc = table_controller(estimates, weights=weights, targets=(0.4, 0.0))
            got = bc.control_step(mkobs(), {})
            assert not bc.last_decision.fallback
            assert bc.last_decision.feasible_count == len(feasible)
            assert got == best

    def test_tie_breaks_toward_earliest_plan(self, table_controller):
        estimates = {"s0": self.OUT, "s1": self.IN, "s2": self.IN}
        bc = table_controller(estimates, weights={"s1": 1.0, "s2": 1.0}, targets=(0.4, 0.0))
        assert bc.control_step(mkobs(), {}) == "s1"

    def test_empty_set_falls_back_to_least_deviating(self, table_controller):
        # summed relative deviations: s0 0 + 0.3/0.05 = 6, s1 1 + 2 = 3,
        # s2 1 + 2 = 3; s1 and s2 tie and the earlier one wins
        estimates = {"s0": (0.4, 0.3), "s1": (0.8, 0.1), "s2": (0.0, 0.1)}
        bc = table_controller(estimates, weights={"s0": 9.0, "s2": 9.0}, targets=(0.4, 0.0))
        assert bc.control_step(mkobs(), {}) == "s1"
        assert bc.last_decision.fallback
        assert bc.last_decision.feasible_count == 0


    def test_plans_sharing_a_lane_sum_its_one_term(self, lane_controller, monkeypatch):
        # "both" and "fwd" both cross forward on lane A, and "both" crosses
        # back on B: each step prices A once and adds its term to both plans
        crossing = {"both": (("A",), ("B",)), "fwd": (("A",), ()), "none": ((), ())}
        flows = {"A": 0.4, "B": 0.04}
        priced = []
        for both_weight, chosen in ((3.0, "both"), (0.5, "fwd")):
            weights = {"both": both_weight, "fwd": 2.0}
            bc = lane_controller(crossing, flows, weights, targets=(0.4, 0.0))
            table = boundaryctl.lane_flows
            monkeypatch.setattr(
                boundaryctl,
                "lane_flows",
                lambda lanes, *args: priced.append(list(lanes)) or table(lanes, *args),
            )
            # both and fwd are inside the band; the higher weight wins
            assert bc.control_step(mkobs(), {}) == chosen
            assert bc.last_decision.feasible_count == 2
            assert bc.last_decision.est_fwd == pytest.approx(0.4)
        assert priced == [["A", "B"]] * 2
        assert bc.plan_flows(mkobs(), {}) == [
            pytest.approx((0.4, 0.04)), pytest.approx((0.4, 0.0)), (0.0, 0.0)
        ]


class TestControlStep:
    def make_controller(self, single_gate, target_fwd, target_rev):
        bc = BoundaryController(single_gate.network, ("R1", "R2"), ControlConfig())
        bc.begin_macro(target_fwd, target_rev)
        return bc

    def test_three_step_hand_trace(self, single_gate):
        # Hand-simulated: target 0.3 east, 0.0 west.  Nothing is running,
        # so the arrivals are the queues.
        bc = self.make_controller(single_gate, 0.3, 0.0)

        # k=1: west queue 2 makes 'both' violate the west zero-band; only
        # 'fwd' satisfies both directions.
        queues = {"A_0": 5, "Rv_0": 2}
        assert bc.control_step(mkobs(queues=queues), queues) == "fwd"
        assert not bc.last_decision.fallback
        assert bc.last_decision.feasible_count == 1
        bc.record_realized(mkobs(crossings={("R1", "R2"): 0.3, ("R2", "R1"): 0.0}))

        # k=2: on-track history keeps the expected rate at 0.3.
        queues = {"A_0": 4, "Rv_0": 2}
        assert bc.control_step(mkobs(queues=queues), queues) == "fwd"
        assert bc.last_decision.m_expected_fwd == pytest.approx(0.3)
        bc.record_realized(mkobs(crossings={("R1", "R2"): 0.2, ("R2", "R1"): 0.0}))

        # k=3: expected rises to (30-5)/80 = 0.3125; west queue cleared, so
        # 'both' and 'fwd' tie on weight and the earlier plan wins.
        queues = {"A_0": 6, "B_0": 8, "Rv_0": 0}
        assert bc.control_step(mkobs(queues=queues), queues) == "both"
        assert bc.last_decision.m_expected_fwd == pytest.approx(0.3125)
        assert bc.last_decision.feasible_count == 2

    def test_zero_traffic_zero_target_picks_first_plan(self, single_gate):
        bc = self.make_controller(single_gate, 0.0, 0.0)
        assert bc.control_step(mkobs(), {}) == "both"
        assert not bc.last_decision.fallback
        assert bc.last_decision.feasible_count == 4

    def test_unreachable_target_falls_back_to_max_flow_plan(self, single_gate):
        bc = self.make_controller(single_gate, 2.0, 0.0)
        fallbacks = []
        for k in range(10):
            plan = bc.control_step(mkobs(queues={"A_0": 5}), {"A_0": 5.0})
            fallbacks.append(bc.last_decision.fallback)
            if bc.last_decision.fallback:
                assert plan == "both"  # earliest among max-flow plans
            bc.record_realized(mkobs(crossings={("R1", "R2"): 0.3, ("R2", "R1"): 0.0}))
        assert not fallbacks[0]
        assert any(fallbacks)
        assert all(fallbacks[3:])


class TestTelescoping:
    def test_cumulative_error_bounded_by_sigma_budget(self, table_controller):
        # Adversarial realized flows that stay inside every step's band still
        # land the macro-step total within sigma * M * T of the target.
        rng = np.random.default_rng(42)
        u, dt, sigma = 10, 10.0, 0.1
        for _ in range(300):
            target = float(rng.uniform(0.1, 2.0))
            bc = table_controller({"only": (0.0, 0.0)}, targets=(target, 0.0))
            realized = []
            for k in range(1, u + 1):
                bc.control_step(mkobs(), {})
                m = bc.last_decision.m_expected_fwd
                if m <= 0.0:
                    flow = float(rng.uniform(0.0, 0.0499))
                else:
                    tol = (u - k + 1) * sigma
                    flow = m * (1.0 + float(rng.uniform(-0.999, 0.999)) * tol)
                    flow = max(flow, 0.0)
                realized.append(flow)
                bc.record_realized(mkobs(crossings={FWD: flow}))
            total = sum(realized) * dt
            assert abs(total - target * u * dt) <= sigma * target * u * dt + 1e-9


def random_obs(rng, net, ordered, step):
    """Random queues and non-gated crossings on every lane and direction of
    ``net``, and random arrivals on every lane; about one non-gated flow in
    three is zero.  Returns the observation and the arrivals."""
    queues = {lid: int(rng.integers(0, lane.capacity_veh + 1)) for lid, lane in net.lanes.items()}
    arrivals = {
        lid: float(rng.uniform(0.0, 1.5 * lane.sat_flow_veh_s * 10.0))
        for lid, lane in net.lanes.items()
    }
    ng = {d: float(rng.uniform(0.0, 0.3)) * (rng.random() < 0.67) for d in ordered}
    return mkobs(queues=queues, ng=ng, step=step), arrivals


class TestAgainstReference:
    @pytest.mark.parametrize("build, macro_steps", [(fixtures.corridor2, 200), (fixtures.grid6, 30)])
    def test_controller_matches_the_reference_rule(self, build, macro_steps):
        """Random steps on a fixture's boundaries, with targets of zero,
        inside the start-of-step envelope and out of reach, give the
        reference's decision field for field."""
        sc = build()
        net, control = sc.network, sc.control
        u = control.steps_per_macro
        ordered = sc.partition.ordered_boundaries()
        pairs = [
            (
                BoundaryController(net, key, control),
                ReferenceController(
                    net, key, u, control.sigma, control.sigma_abs_veh_s, control.t_micro_s
                ),
            )
            for key in sc.partition.boundary_keys()
        ]
        rng = np.random.default_rng(2024)
        seen = {"steps": 0, "fallback": 0, "inside": 0, "nothing_expected": 0}
        step = 0
        for _ in range(macro_steps):
            obs, arrivals = random_obs(rng, net, ordered, step)
            for bc, ref in pairs:
                envelope = bc.macro_flow_bounds(obs, arrivals)
                assert envelope == ref.macro_flow_bounds(obs, arrivals)
                targets = []
                for lo, hi in envelope:
                    kind = rng.integers(3)
                    if kind == 0:
                        targets.append(0.0)
                    elif kind == 1:
                        targets.append(float(rng.uniform(lo, hi)))
                    else:
                        targets.append(hi * float(rng.uniform(1.5, 3.0)) + 0.1)
                bc.begin_macro(*targets)
                ref.begin_macro(*targets)
            for _ in range(u):
                step += 1
                obs, arrivals = random_obs(rng, net, ordered, step)
                crossings = {d: float(rng.uniform(0.0, 0.6)) for d in ordered}
                after = mkobs(crossings=crossings, step=step)
                for bc, ref in pairs:
                    assert bc.control_step(obs, arrivals) == ref.control_step(obs, arrivals)
                    assert bc.last_decision == ref.last_decision
                    bc.record_realized(after)
                    ref.record_realized(after)
                    assert bc.last_decision == ref.last_decision
                    d = bc.last_decision
                    seen["steps"] += 1
                    seen["fallback"] += d.fallback
                    seen["inside"] += d.feasible_count
                    seen["nothing_expected"] += d.m_expected_fwd == 0.0 or d.m_expected_rev == 0.0
        assert seen["steps"] >= 2000
        assert min(seen.values()) > 0, seen
