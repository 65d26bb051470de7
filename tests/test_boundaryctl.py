import numpy as np
import pytest

from msjc.boundaryctl import (
    BoundaryController,
    BoundaryTracker,
    expected_rate,
    feasible_plans,
    flow_bounds,
    phase_pressure,
    plan_flow,
    plan_weight,
    select_plan,
)
from msjc.mesosim import MicroObservation


def mkobs(queues=None, arrivals=None, ng=None, crossings=None, dt=10.0, step=1):
    queues = queues or {}
    return MicroObservation(
        step=step,
        time_s=step * dt,
        dt_s=dt,
        queues=dict(queues),
        arrivals=dict(arrivals if arrivals is not None else queues),
        boundary_crossings=dict(crossings or {}),
        non_gating_crossings=dict(ng or {}),
        accumulation={},
        od_counts={},
        completed=0,
        completions_by_region={},
        admitted_od={},
        entry_queue=0,
        in_network=0,
    )


def tracker(target, u=10, k=1, observed=(), sigma=0.1, ng=0.0, boundary=("R1", "R2")):
    t = BoundaryTracker(
        boundary=boundary, target_veh_s=target, u=u, k=k,
        observed=list(observed), sigma=sigma, sigma_abs=0.05, t_micro_s=10.0,
    )
    t.ng_rate = ng
    return t


class TestExpectedRate:
    def test_first_step_equals_macro_target(self):
        assert expected_rate(tracker(0.5)) == pytest.approx(0.5)

    def test_compensation_arithmetic(self):
        # target 0.5 veh/s, first step realized 1.0 -> (50 - 10) / 90
        t = tracker(0.5, k=2, observed=[1.0])
        assert expected_rate(t) == pytest.approx(40.0 / 90.0)

    def test_on_track_history_keeps_rate_constant(self):
        t = tracker(0.5)
        for k in range(1, 11):
            rate = expected_rate(t)
            assert rate == pytest.approx(0.5)
            t.record(rate, 0.0)

    def test_overshoot_floors_at_zero(self):
        t = tracker(0.1, k=3, observed=[0.6, 0.6])
        assert expected_rate(t) == 0.0
        assert t.floored


class TestPlanFlow:
    def test_min_rule_downstream_space_binds(self, single_gate):
        net = single_gate.network
        plan = {p.id: p for p in net.plan_set("R1", "R2")}["fwd"]
        obs = mkobs(queues={"A_0": 4, "B_0": 7}, arrivals={"A_0": 4.0})
        # min(e=4, sat 0.3*10=3 -> 3? no: min(4, 3, 10-7=3) = 3 -> 0.3
        assert plan_flow(plan, obs, net, ("R1", "R2")) == pytest.approx(0.3)

    def test_min_rule_arrivals_bind(self, single_gate):
        net = single_gate.network
        plan = {p.id: p for p in net.plan_set("R1", "R2")}["fwd"]
        obs = mkobs(queues={"B_0": 7}, arrivals={"A_0": 2.0})
        assert plan_flow(plan, obs, net, ("R1", "R2")) == pytest.approx(0.2)

    def test_plan_without_crossing_lanes_estimates_zero(self, single_gate):
        net = single_gate.network
        plan = {p.id: p for p in net.plan_set("R1", "R2")}["rev"]
        obs = mkobs(arrivals={"A_0": 5.0})
        assert plan_flow(plan, obs, net, ("R1", "R2")) == 0.0

    def test_saturation_caps_huge_arrivals(self, single_gate):
        net = single_gate.network
        plan = {p.id: p for p in net.plan_set("R1", "R2")}["fwd"]
        obs = mkobs(arrivals={"A_0": 500.0})
        assert plan_flow(plan, obs, net, ("R1", "R2")) == pytest.approx(0.3)

    def test_monotone_in_arrivals_and_downstream_queues(self, single_gate):
        net = single_gate.network
        plan = {p.id: p for p in net.plan_set("R1", "R2")}["fwd"]
        rng = np.random.default_rng(3)
        for _ in range(100):
            e = float(rng.uniform(0, 6))
            q = int(rng.integers(0, 10))
            base = plan_flow(plan, mkobs(queues={"B_0": q}, arrivals={"A_0": e}), net, ("R1", "R2"))
            more_e = plan_flow(plan, mkobs(queues={"B_0": q}, arrivals={"A_0": e + 1}), net, ("R1", "R2"))
            more_q = plan_flow(plan, mkobs(queues={"B_0": q + 1}, arrivals={"A_0": e}), net, ("R1", "R2"))
            assert more_e >= base - 1e-12
            assert more_q <= base + 1e-12


class TestFeasiblePlans:
    def test_band_arithmetic_at_last_step(self):
        # u=10, k=10 -> tolerance 0.1; m=0.5, ng=0.1 -> est in (0.35, 0.45)
        fwd = tracker(0.5, k=10, observed=[0.5] * 9, ng=0.1)
        rev = tracker(0.0, k=10, observed=[0.0] * 9)
        estimates = {
            "low": (0.0, 0.0),
            "edge_lo": (0.35, 0.0),
            "just_in_lo": (0.351, 0.0),
            "center": (0.4, 0.0),
            "just_in_hi": (0.449, 0.0),
            "edge_hi": (0.45, 0.0),
            "high": (0.6, 0.0),
        }
        got = feasible_plans(fwd, rev, estimates, list(estimates))
        assert got == ["just_in_lo", "center", "just_in_hi"]

    def test_first_step_tolerance_is_total(self):
        # (u-k+1)*sigma = 1.0: anything strictly inside (0, 2m) passes
        fwd = tracker(0.5)
        rev = tracker(0.0)
        estimates = {"zero": (0.0, 0.0), "tiny": (0.01, 0.0), "double": (0.99, 0.0)}
        got = feasible_plans(fwd, rev, estimates, list(estimates))
        assert got == ["tiny", "double"]

    def test_exact_estimates_make_every_plan_feasible(self):
        fwd = tracker(0.4, k=5, observed=[0.4] * 4)
        rev = tracker(0.2, k=5, observed=[0.2] * 4)
        estimates = {f"s{i}": (0.4, 0.2) for i in range(4)}
        got = feasible_plans(fwd, rev, estimates, sorted(estimates))
        assert got == sorted(estimates)

    def test_reverse_direction_must_pass_too(self):
        fwd = tracker(0.4)
        rev = tracker(0.0)
        estimates = {"ok": (0.4, 0.0), "pushy": (0.4, 0.3)}
        got = feasible_plans(fwd, rev, estimates, ["ok", "pushy"])
        assert got == ["ok"]


class TestFlowBounds:
    def test_envelope_arithmetic(self):
        assert flow_bounds({"a": 0.2, "b": 0.6}, 0.1) == (pytest.approx(0.3), pytest.approx(0.7))

    def test_single_plan_collapses(self):
        lo, hi = flow_bounds({"only": 0.4}, 0.0)
        assert lo == hi == pytest.approx(0.4)

    def test_all_zero_traffic(self):
        assert flow_bounds({"a": 0.0, "b": 0.0}, 0.0) == (0.0, 0.0)


class TestPressure:
    def test_zero_queues_zero_weight(self, single_gate):
        net = single_gate.network
        assert phase_pressure({"A_0"}, mkobs(), net) == 0.0

    def test_pressure_arithmetic(self, single_gate):
        net = single_gate.network
        obs = mkobs(queues={"A_0": 5, "B_0": 2})
        assert phase_pressure({"A_0"}, obs, net) == pytest.approx((5 - 2) * 0.3)

    def test_congested_downstream_goes_negative(self, single_gate):
        net = single_gate.network
        obs = mkobs(queues={"A_0": 1, "B_0": 9})
        assert phase_pressure({"A_0"}, obs, net) == pytest.approx((1 - 9) * 0.3)

    def test_plan_weight_sums_phases(self, single_gate):
        net = single_gate.network
        plan = {p.id: p for p in net.plan_set("R1", "R2")}["both"]
        obs = mkobs(queues={"A_0": 5, "Rv_0": 3})
        assert plan_weight(plan, obs, net) == pytest.approx(5 * 0.3 + 3 * 0.3)


class TestSelectPlan:
    def test_singleton_feasible_set(self):
        plan, fallback = select_plan(["s1"], {"s1": -3.0, "s2": 5.0}, ["s0", "s1", "s2"])
        assert plan == "s1" and not fallback

    def test_matches_brute_force_argmax(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            order = [f"s{i}" for i in range(n)]
            weights = {pid: float(rng.integers(-3, 4)) for pid in order}
            feasible = [pid for pid in order if rng.random() < 0.7] or order
            # independent oracle: linear scan keeping the first maximum
            best = None
            for pid in feasible:
                if best is None or weights[pid] > weights[best]:
                    best = pid
            got, fallback = select_plan(feasible, weights, order)
            assert not fallback
            assert got == best

    def test_tie_breaks_toward_earliest_plan(self):
        plan, _ = select_plan(["s2", "s1"], {"s1": 1.0, "s2": 1.0}, ["s0", "s1", "s2"])
        assert plan == "s1"

    def test_empty_set_falls_back_to_least_deviating(self):
        plan, fallback = select_plan(
            [], {"s0": 0.0, "s1": 0.0}, ["s0", "s1"], deviations={"s0": 2.0, "s1": 0.5}
        )
        assert fallback and plan == "s1"


class TestControlStep:
    def make_controller(self, single_gate, target_fwd, target_rev):
        bc = BoundaryController(
            single_gate.network, ("R1", "R2"), u=10, sigma=0.1, sigma_abs=0.05, t_micro_s=10.0
        )
        bc.begin_macro(target_fwd, target_rev)
        return bc

    def test_three_step_hand_trace(self, single_gate):
        # Hand-simulated: target 0.3 east, 0.0 west.
        bc = self.make_controller(single_gate, 0.3, 0.0)

        # k=1: west queue 2 makes 'both' violate the west zero-band; only
        # 'fwd' satisfies both directions.
        obs = mkobs(queues={"A_0": 5, "Rv_0": 2})
        assert bc.control_step(obs) == "fwd"
        assert not bc.last_decision.fallback
        assert bc.last_decision.feasible_count == 1
        bc.record_realized(mkobs(crossings={("R1", "R2"): 0.3, ("R2", "R1"): 0.0}))

        # k=2: on-track history keeps the expected rate at 0.3.
        obs = mkobs(queues={"A_0": 4, "Rv_0": 2})
        assert bc.control_step(obs) == "fwd"
        assert bc.last_decision.m_expected_fwd == pytest.approx(0.3)
        bc.record_realized(mkobs(crossings={("R1", "R2"): 0.2, ("R2", "R1"): 0.0}))

        # k=3: expected rises to (30-5)/80 = 0.3125; west queue cleared, so
        # 'both' and 'fwd' tie on weight and the earlier plan wins.
        obs = mkobs(queues={"A_0": 6, "B_0": 8, "Rv_0": 0})
        assert bc.control_step(obs) == "both"
        assert bc.last_decision.m_expected_fwd == pytest.approx(0.3125)
        assert bc.last_decision.feasible_count == 2

    def test_zero_traffic_zero_target_picks_first_plan(self, single_gate):
        bc = self.make_controller(single_gate, 0.0, 0.0)
        obs = mkobs()
        assert bc.control_step(obs) == "both"
        assert not bc.last_decision.fallback
        assert bc.last_decision.feasible_count == 4

    def test_unreachable_target_falls_back_to_max_flow_plan(self, single_gate):
        bc = self.make_controller(single_gate, 2.0, 0.0)
        fallbacks = []
        for k in range(10):
            obs = mkobs(queues={"A_0": 5}, arrivals={"A_0": 5.0})
            plan = bc.control_step(obs)
            fallbacks.append(bc.last_decision.fallback)
            if bc.last_decision.fallback:
                assert plan == "both"  # earliest among max-flow plans
            bc.record_realized(mkobs(crossings={("R1", "R2"): 0.3, ("R2", "R1"): 0.0}))
        assert not fallbacks[0]
        assert any(fallbacks)
        assert all(fallbacks[3:])


class TestTelescoping:
    def test_cumulative_error_bounded_by_sigma_budget(self):
        # Adversarial realized flows that stay inside every step's band still
        # land the macro-step total within sigma * M * T of the target.
        rng = np.random.default_rng(42)
        u, dt, sigma = 10, 10.0, 0.1
        for _ in range(300):
            target = float(rng.uniform(0.1, 2.0))
            t = tracker(target, sigma=sigma)
            realized = []
            for k in range(1, u + 1):
                m = expected_rate(t)
                if m <= 0.0:
                    flow = float(rng.uniform(0.0, 0.0499))
                else:
                    tol = (u - k + 1) * sigma
                    flow = m * (1.0 + float(rng.uniform(-0.999, 0.999)) * tol)
                    flow = max(flow, 0.0)
                realized.append(flow)
                t.record(flow, 0.0)
            total = sum(realized) * dt
            assert abs(total - target * u * dt) <= sigma * target * u * dt + 1e-9
