import logging

import numpy as np
import pytest

from msjc.macrodyn import MacroState

from oracles import completion_split, step, transfers


class StubMfd:
    """Completion model with a fixed per-region outflow fraction per step:
    G(N) * T = fraction * N."""

    def __init__(self, fraction_per_step, t_macro=100.0):
        self.fraction = dict(fraction_per_step)
        self.t = t_macro

    def evaluate(self, region, n):
        return self.fraction[region] * n / self.t


class CubicMfd:
    def __init__(self, coeffs):
        self.coeffs = dict(coeffs)

    def evaluate(self, region, n):
        b1, b2, b3 = self.coeffs[region]
        return max(0.0, b3 * n**3 + b2 * n**2 + b1 * n)


REGION1 = (4.46e-3, -1.57e-6, 1.44e-10)


def two_region_state(n, q=None, t_macro=100.0):
    return MacroState(
        n=dict(n),
        q=dict(q or {}),
        t_macro_s=t_macro,
        regions=("R1", "R2"),
        adjacency={"R1": ("R2",), "R2": ("R1",)},
    )


class TestCompletionSplit:
    def test_empty_region_splits_to_zero(self):
        state = two_region_state({("R1", "R1"): 0.0, ("R1", "R2"): 0.0})
        t1, t2 = completion_split(state, CubicMfd({"R1": REGION1, "R2": REGION1}))
        assert t2["R1"] == 0.0
        assert t1[("R1", "R2")] == 0.0

    def test_all_internal_region1_anchor(self):
        state = two_region_state({("R1", "R1"): 1000.0})
        t1, t2 = completion_split(state, CubicMfd({"R1": REGION1, "R2": REGION1}))
        assert t2["R1"] == pytest.approx(303.4, abs=1e-9)
        assert t1[("R1", "R2")] == 0.0

    def test_even_split_symmetry(self):
        state = two_region_state({("R1", "R1"): 500.0, ("R1", "R2"): 500.0})
        t1, t2 = completion_split(state, CubicMfd({"R1": REGION1, "R2": REGION1}))
        assert t1[("R1", "R2")] == pytest.approx(t2["R1"], rel=1e-12)


class TestTransfers:
    def test_zero_gating_blocks_everything(self):
        state = two_region_state({("R1", "R2"): 100.0, ("R2", "R1"): 50.0})
        est = transfers(
            state,
            StubMfd({"R1": 0.5, "R2": 0.5}),
            {("R1", "R2"): 0.0, ("R2", "R1"): 0.0},
            {("R1", "R2", "R2"): 1.0, ("R2", "R1", "R1"): 1.0},
        )
        assert all(v == 0.0 for v in est.n_crossing.values())

    def test_full_gating_passes_released_stock(self):
        state = two_region_state({("R1", "R2"): 100.0})
        est = transfers(
            state,
            StubMfd({"R1": 0.5, "R2": 0.5}),
            {("R1", "R2"): 1.0, ("R2", "R1"): 1.0},
            {("R1", "R2", "R2"): 1.0},
        )
        assert est.n_crossing[("R1", "R2", "R2")] == pytest.approx(est.type1[("R1", "R2")])

    def test_arithmetic_anchor(self):
        # released 40 veh, b = 0.5, c = 0.25 -> 5 veh, 0.05 veh/s at T = 100
        state = MacroState(
            n={("R1", "R2"): 80.0},
            q={},
            t_macro_s=100.0,
            regions=("R1", "R2", "R3"),
            adjacency={"R1": ("R2", "R3"), "R2": ("R1",), "R3": ("R1",)},
        )
        mfd = StubMfd({"R1": 0.5, "R2": 0.5, "R3": 0.5})  # type1 = 40
        est = transfers(
            state,
            mfd,
            {("R1", "R2"): 0.5, ("R1", "R3"): 1.0, ("R2", "R1"): 1.0, ("R3", "R1"): 1.0},
            {("R1", "R2", "R2"): 0.25, ("R1", "R3", "R2"): 0.75},
        )
        assert est.type1[("R1", "R2")] == pytest.approx(40.0)
        assert est.n_crossing[("R1", "R2", "R2")] == pytest.approx(5.0)
        assert est.m_crossing[("R1", "R2", "R2")] == pytest.approx(0.05)

    def test_boundary_flow_sums_over_destinations(self):
        state = MacroState(
            n={("R1", "R2"): 100.0, ("R1", "R3"): 100.0},
            q={},
            t_macro_s=100.0,
            regions=("R1", "R2", "R3"),
            adjacency={"R1": ("R2", "R3"), "R2": ("R1", "R3"), "R3": ("R1", "R2")},
        )
        mfd = StubMfd({"R1": 0.4, "R2": 0.4, "R3": 0.4})
        b = {k: 1.0 for k in [("R1", "R2"), ("R1", "R3"), ("R2", "R1"), ("R2", "R3"), ("R3", "R1"), ("R3", "R2")]}
        c = {
            ("R1", "R2", "R2"): 1.0,
            ("R1", "R3", "R2"): 0.0,
            ("R1", "R2", "R3"): 0.5,
            ("R1", "R3", "R3"): 0.5,
        }
        est = transfers(state, mfd, b, c)
        assert est.m_boundary[("R1", "R2")] == pytest.approx(
            est.m_crossing[("R1", "R2", "R2")] + est.m_crossing[("R1", "R2", "R3")]
        )

    def test_invalid_controls_rejected(self):
        state = two_region_state({("R1", "R2"): 10.0})
        mfd = StubMfd({"R1": 0.5, "R2": 0.5})
        with pytest.raises(ValueError, match="outside"):
            transfers(state, mfd, {("R1", "R2"): 1.5}, {("R1", "R2", "R2"): 1.0})
        with pytest.raises(ValueError, match="!= 1"):
            transfers(state, mfd, {("R1", "R2"): 1.0}, {("R1", "R2", "R2"): 0.5})


class TestStep:
    def test_zero_state_is_fixed_point(self):
        state = two_region_state({})
        nxt = step(state, StubMfd({"R1": 0.5, "R2": 0.5}), {}, {}, {})
        assert all(v == 0.0 for v in nxt.n.values())

    def test_two_region_transfer_arithmetic(self):
        # Sender releases 10 veh toward its destination region; they leave
        # R1's bucket and land in R2's internal bucket.
        state = two_region_state({("R1", "R2"): 100.0})
        mfd = StubMfd({"R1": 0.1, "R2": 0.1})  # type1 = 10 veh
        nxt = step(
            state,
            mfd,
            {("R1", "R2"): 1.0, ("R2", "R1"): 1.0},
            {("R1", "R2", "R2"): 1.0},
            {},
        )
        assert nxt.n[("R1", "R2")] == pytest.approx(90.0)
        assert nxt.n[("R2", "R2")] == pytest.approx(10.0)

    def test_conservation_identity(self):
        rng = np.random.default_rng(11)
        regions = ("R1", "R2", "R3")
        adjacency = {"R1": ("R2", "R3"), "R2": ("R1", "R3"), "R3": ("R1", "R2")}
        for _ in range(200):
            n = {
                (i, j): float(rng.uniform(0, 500))
                for i in regions
                for j in regions
            }
            q = {(i, j): float(rng.uniform(0, 20)) for i in regions for j in regions}
            state = MacroState(n, q, 100.0, regions, adjacency)
            frac = {r: float(rng.uniform(0.05, 0.9)) for r in regions}
            mfd = StubMfd(frac)
            b = {(i, h): float(rng.uniform(0, 1)) for i in regions for h in adjacency[i]}
            c = {}
            for i in regions:
                for j in regions:
                    if i == j:
                        continue
                    weights = rng.uniform(0.1, 1.0, len(adjacency[i]))
                    weights /= weights.sum()
                    for h, w in zip(adjacency[i], weights):
                        c[(i, h, j)] = float(w)
            _, type2 = completion_split(state, mfd)
            nxt = step(state, mfd, b, c, q)
            lhs = sum(nxt.accumulation(r) for r in regions) - sum(
                state.accumulation(r) for r in regions
            )
            rhs = sum(q.values()) - sum(type2.values())
            assert abs(lhs - rhs) <= 1e-9

    def test_product_rescaling_leaves_step_unchanged(self):
        state = MacroState(
            n={("R1", "R3"): 120.0},
            q={},
            t_macro_s=100.0,
            regions=("R1", "R2", "R3"),
            adjacency={"R1": ("R2", "R3"), "R2": ("R1", "R3"), "R3": ("R1", "R2")},
        )
        mfd = StubMfd({"R1": 0.5, "R2": 0.5, "R3": 0.5})
        base_b = {("R1", "R2"): 0.5, ("R1", "R3"): 0.5, ("R2", "R1"): 1.0,
                  ("R2", "R3"): 1.0, ("R3", "R1"): 1.0, ("R3", "R2"): 1.0}
        base_c = {("R1", "R2", "R3"): 0.4, ("R1", "R3", "R3"): 0.6}
        alt_b = dict(base_b)
        alt_b[("R1", "R2")] = 1.0
        alt_b[("R1", "R3")] = 0.375
        alt_c = {("R1", "R2", "R3"): 0.2, ("R1", "R3", "R3"): 0.8}
        a = step(state, mfd, base_b, base_c, {})
        b = step(state, mfd, alt_b, alt_c, {})
        for key in a.n:
            assert a.n[key] == pytest.approx(b.n[key], abs=1e-12)

    def test_more_gating_never_raises_sender_stock(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n12 = float(rng.uniform(10, 300))
            state = two_region_state({("R1", "R2"): n12, ("R2", "R1"): 30.0})
            mfd = StubMfd({"R1": 0.5, "R2": 0.5})
            lo, hi = sorted(rng.uniform(0, 1, 2))
            c = {("R1", "R2", "R2"): 1.0, ("R2", "R1", "R1"): 1.0}
            low = step(state, mfd, {("R1", "R2"): lo, ("R2", "R1"): 0.5}, c, {})
            high = step(state, mfd, {("R1", "R2"): hi, ("R2", "R1"): 0.5}, c, {})
            assert high.n[("R1", "R2")] <= low.n[("R1", "R2")] + 1e-12

    def test_overdraw_clamps_to_zero_and_warns(self, caplog):
        state = two_region_state({("R1", "R2"): 10.0})
        mfd = StubMfd({"R1": 1.5, "R2": 0.5})  # releases more than the stock
        with caplog.at_level(logging.WARNING, logger="msjc.macrodyn"):
            nxt = step(
                state,
                mfd,
                {("R1", "R2"): 1.0, ("R2", "R1"): 1.0},
                {("R1", "R2", "R2"): 1.0},
                {},
            )
        assert nxt.n[("R1", "R2")] == 0.0
        assert any("clamped" in r.message for r in caplog.records)
