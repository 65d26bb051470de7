import math
import re

import numpy as np
import pytest
import yaml

from msjc.mfd import MfdFitError, MfdModel, MfdSample, critical_accumulation, fit, load_mfd, save_mfd
from msjc.netmodel import MfdParams, ScenarioError

# Published per-region cubic coefficients used as anchors: (b1, b2, b3, n_crit)
REGION_CUBICS = {
    "r1": (4.46e-3, -1.57e-6, 1.44e-10, 1946.0),
    "r2": (5.04e-3, -1.65e-6, 1.39e-10, 2077.0),
    "r3": (6.59e-3, -3.40e-6, 4.50e-10, 1310.0),
    "r4": (5.46e-3, -2.21e-6, -1.46e-9, 721.0),
    "r5": (4.31e-3, -9.18e-7, -2.59e-10, 1454.0),
    "r6": (4.95e-3, -1.49e-6, -7.38e-10, 967.0),
}


def _model(**cubics):
    """Model from (b1, b2, b3, n_crit) per region."""
    return MfdModel({r: MfdParams(*c) for r, c in cubics.items()})


def _cubic(b1, b2, b3, n):
    return b3 * n**3 + b2 * n**2 + b1 * n


def _samples(b1, b2, b3, n_values, region="R1", noise=None, rng=None):
    out = []
    for n in n_values:
        g = _cubic(b1, b2, b3, n)
        if noise is not None:
            g *= 1.0 + noise * rng.standard_normal()
        out.append(MfdSample(region, float(n), float(g)))
    return out


class TestFit:
    def test_noiseless_recovery(self):
        b1, b2, b3 = 5e-3, -1e-6, -1e-10
        model = fit(_samples(b1, b2, b3, np.linspace(50, 3000, 25)))
        p = model.params["R1"]
        assert abs(p.b1 - b1) / abs(b1) <= 1e-6
        assert abs(p.b2 - b2) / abs(b2) <= 1e-6
        assert abs(p.b3 - b3) / abs(b3) <= 1e-6

    def test_noiseless_residual(self):
        b1, b2, b3 = 5e-3, -1e-6, -1e-10
        n = np.linspace(50, 3000, 25)
        model = fit(_samples(b1, b2, b3, n))
        p = model.params["R1"]
        fitted = _cubic(p.b1, p.b2, p.b3, n)
        truth = _cubic(b1, b2, b3, n)
        assert np.max(np.abs(fitted - truth) / np.abs(truth)) <= 1e-8

    def test_degenerate_samples_rejected(self):
        samples = [MfdSample("R1", 0.0, 0.0)] * 10
        samples.append(MfdSample("R1", 100.0, 0.4))
        with pytest.raises(MfdFitError, match="rank-deficient"):
            fit(samples)

    @pytest.mark.parametrize("c, positive", [(1.9, True), (2.1, False)])
    def test_flow_must_stay_positive_on_the_fit_range(self, c, positive):
        # G(N) = N q(N), q = 1e-2 (1 - c x + x^2) with x = N / 100, is
        # positive at both ends of the fit range (0, 300]; its vertex, at
        # x = c / 2, dips below zero for c = 2.1 only
        samples = _samples(1e-2, -c * 1e-4, 1e-6, np.linspace(10, 250, 25))
        if positive:
            assert fit(samples).params["R1"].n_max_fit == 300.0
        else:
            with pytest.raises(MfdFitError, match=r"R1: fitted flow is not positive on \(0, 300.0\]"):
                fit(samples)

    def test_no_samples_rejected(self):
        with pytest.raises(MfdFitError, match="no samples"):
            fit([])

    def test_too_few_samples_rejected(self):
        with pytest.raises(MfdFitError, match=">= 10"):
            fit(_samples(5e-3, -1e-6, -1e-10, np.linspace(100, 500, 5)))

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(5)
        samples = _samples(5e-3, -1e-6, -1e-10, np.linspace(50, 3000, 40), noise=0.05, rng=rng)
        a = fit(samples).params["R1"]
        shuffled = list(samples)
        rng.shuffle(shuffled)
        b = fit(shuffled).params["R1"]
        assert a.b1 == pytest.approx(b.b1, rel=1e-12)
        assert a.b2 == pytest.approx(b.b2, rel=1e-12)
        assert a.b3 == pytest.approx(b.b3, rel=1e-12)

    def test_noisy_critical_within_two_percent(self):
        b1, b2, b3, n_crit = REGION_CUBICS["r1"]
        rng = np.random.default_rng(17)
        samples = _samples(b1, b2, b3, np.linspace(50, 2600, 260), noise=0.05, rng=rng)
        model = fit(samples)
        true_crit = critical_accumulation(b1, b2, b3, 4000.0)
        assert abs(model.params["R1"].n_crit - true_crit) / true_crit <= 0.02

    def test_argmax_property_on_fit_range(self):
        b1, b2, b3, _ = REGION_CUBICS["r5"]
        n = np.linspace(50, 2000, 40)
        model = fit(_samples(b1, b2, b3, n))
        best = model.evaluate("R1", model.params["R1"].n_crit)
        assert all(best >= model.evaluate("R1", x) - 1e-12 for x in n)


class TestCritical:
    @pytest.mark.parametrize("key", sorted(REGION_CUBICS))
    def test_published_critical_values_within_one_percent(self, key):
        b1, b2, b3, expected = REGION_CUBICS[key]
        n_crit = critical_accumulation(b1, b2, b3, 2 * expected)
        assert abs(n_crit - expected) / expected <= 0.01

    def test_dense_scan_agrees_with_closed_form(self):
        for b1, b2, b3, _ in REGION_CUBICS.values():
            hi = 4000.0
            n_crit = critical_accumulation(b1, b2, b3, hi)
            scan = np.linspace(0, hi, 200001)
            brute = scan[np.argmax(_cubic(b1, b2, b3, scan))]
            assert abs(n_crit - brute) <= hi / 200000 + 1e-9

    def test_monotone_cubic_maximizes_at_range_end(self):
        n_crit = critical_accumulation(1e-3, 0.0, 0.0, 500.0)
        assert n_crit == 500.0

    def test_nonpositive_cubic_rejected(self):
        with pytest.raises(MfdFitError):
            critical_accumulation(-1e-3, 0.0, 0.0, 500.0)


class TestEvaluate:
    def test_zero_accumulation_gives_zero(self):
        model = _model(R1=REGION_CUBICS["r1"])
        assert model.evaluate("R1", 0.0) == 0.0

    def test_region1_anchor_value(self):
        model = _model(R1=REGION_CUBICS["r1"])
        assert model.evaluate("R1", 1000.0) == pytest.approx(3.034, abs=1e-9)

    def test_negative_tail_clamped(self):
        b1, b2, b3, _ = REGION_CUBICS["r5"]
        model = _model(R1=REGION_CUBICS["r5"])
        assert _cubic(b1, b2, b3, 5000.0) < 0.0
        assert model.evaluate("R1", 5000.0) == 0.0

    def test_continuity_near_clamp(self):
        b1, b2, b3, _ = REGION_CUBICS["r5"]
        model = _model(R1=REGION_CUBICS["r5"])
        root = 3500.0
        while _cubic(b1, b2, b3, root) > 0:
            root += 1.0
        eps = 1e-6
        assert abs(model.evaluate("R1", root - eps) - model.evaluate("R1", root + eps)) < 1e-3

    def test_unknown_region_rejected(self):
        model = _model(R1=REGION_CUBICS["r1"])
        with pytest.raises(KeyError):
            model.evaluate("R9", 10.0)


def test_save_load_round_trip(tmp_path):
    model = _model(R1=REGION_CUBICS["r1"], R2=REGION_CUBICS["r5"])
    path = tmp_path / "mfd.yaml"
    save_mfd(model, path)
    again = load_mfd(path, ("R1", "R2"))
    assert again.params == model.params
    assert again.to_dict() == model.to_dict()


@pytest.mark.parametrize(
    "document, message",
    [
        ({"regions": {}}, "not an MFD file (missing 'mfd' block)"),
        ({"mfd": [1, 2]}, "mfd: must map each region to its coefficients"),
    ],
)
def test_load_mfd_refuses_a_file_without_an_mfd_mapping(tmp_path, document, message):
    path = tmp_path / "mfd.yaml"
    path.write_text(yaml.safe_dump(document))
    with pytest.raises(ScenarioError, match=re.escape(f"{path}: {message}")):
        load_mfd(path, ("R1", "R2"))
