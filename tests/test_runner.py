import csv
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from msjc import fixtures, mesosim, runner

from oracles import reference_logit_routes

# corridor2, seed 0: every strategy injects and completes 856 vehicles.
# Per strategy: total travel time (veh.s) and the time the network clears (s).
GOLDEN = {
    "msjc": (101_620.0, 1650.0),
    "mspc-lr": (109_970.0, 1610.0),
    "bp-lr": (95_780.0, 1610.0),
    "mspc": (114_850.0, 1610.0),
    "bp": (95_810.0, 1610.0),
}

# grid6, seed 0, bp-lr: total travel time (veh.s), throughput (veh) and the
# time the network clears (s).
GRID6_BP_LR = (223_990.0, 1379, 1730.0)

# grid6, seed 0, bp (backpressure without rerouting): the same three.
GRID6_BP = (223_970.0, 1379, 1730.0)

# grid6, seed 0, mspc-lr (PI gating with logit rerouting): the same three.
GRID6_MSPC_LR = (325_830.0, 1379, 1870.0)

# grid6, seed 0, mspc (PI gating): the same three.
GRID6_MSPC = (325_670.0, 1379, 1870.0)

# Boundary decisions of a run's boundary.csv, seed 0: (decisions, fallbacks,
# sum of feasible_count).  They pin the boundary controller's plan choice.
BOUNDARY_DECISIONS = {
    ("grid6", "mspc"): (1120, 616, 792),
    ("corridor2", "msjc"): (140, 92, 85),
    ("corridor2", "mspc"): (140, 79, 102),
}

# grid6, seed 0, default demand levels 0.25-1.25: calibrated MFD per region
# as (b1, b2, b3, n_crit, n_max_fit).  The fit is a LAPACK least-squares
# solve, so the last digits may depend on the BLAS build.
GRID6_CALIBRATED = {
    "R1": (0.014287266560945639, 0.0002071594284302518, -6.01203869851056e-06, 41.88435565644784, 49.4),
    "R2": (0.015074075582016726, 3.2414138230207234e-05, -1.094603993118161e-06, 63.49999999999999, 63.49999999999999),
    "R3": (0.013489451764349627, 0.00033320231657913004, -8.235353917096347e-06, 39.9, 39.9),
    "R4": (0.017042646033313312, 9.37102157710419e-05, -5.973259495203592e-06, 36.50880280412692, 44.599999999999994),
    "R5": (0.014921882348962546, 3.9853631816401504e-05, -1.3937074925773448e-06, 61.6, 61.6),
    "R6": (0.015848235050762226, 0.00015264478755149755, -4.332874904574162e-06, 37.599999999999994, 37.599999999999994),
}


def assert_grid6_calibrated(model) -> None:
    assert model.regions() == tuple(GRID6_CALIBRATED)
    for region, expected in GRID6_CALIBRATED.items():
        p = model.params[region]
        assert (p.b1, p.b2, p.b3, p.n_crit, p.n_max_fit) == pytest.approx(expected, rel=1e-9)


CSV_HEADERS = {
    "observations.csv": [
        "step", "time_s", "N_R1", "N_R2", "m_R1_R2", "m_R2_R1",
        "queue_total", "entry_queue", "in_network", "completed", "throughput_cum",
    ],
    "joint.csv": [
        "t_index", "time_s", "z", "residual", "feasible", "z_gap", "flow_gap",
        "b_R1_R2", "b_R2_R1", "M_R1_R2", "M_R2_R1",
    ],
    "boundary.csv": [
        "time_s", "boundary", "k", "plan", "fallback", "feasible_count",
        "m_expected_fwd", "m_expected_rev", "est_fwd", "est_rev",
        "ng_fwd", "ng_rev", "realized_fwd", "realized_rev",
    ],
    "routing.csv": [
        "time_s", "region", "dest_region", "next_region",
        "target", "realized", "target_term", "homogeneity_term",
    ],
    "flows.csv": [
        "t_index", "time_s", "from_region", "to_region", "active",
        "target", "m_min", "m_max", "realized", "fallback_steps",
    ],
    "metrics.csv": [
        "strategy", "seed", "total_travel_time_veh_s", "throughput_veh",
        "injected_veh", "clearance_time_s", "truncated", "first_activation_s",
    ],
}


def _boundary_rows(out_dir) -> list[dict]:
    with open(out_dir / "boundary.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _decision_counts(rows: list[dict]) -> tuple[int, int, int]:
    return (
        len(rows),
        sum(r["fallback"] == "1" for r in rows),
        sum(int(r["feasible_count"]) for r in rows),
    )


def _headline(m: runner.RunMetrics) -> tuple:
    return (
        m.total_travel_time_veh_s,
        m.throughput_veh,
        m.injected_veh,
        m.clearance_time_s,
        m.truncated,
    )


@pytest.mark.parametrize("strategy", runner.STRATEGIES)
def test_golden_corridor2(strategy):
    scenario = fixtures.corridor2()
    m = runner.run(scenario, runner.RunConfig(strategy=strategy, seed=0))
    ttt, clearance = GOLDEN[strategy]
    assert _headline(m) == (ttt, 856, 856, clearance, False)
    again = runner.run(scenario, runner.RunConfig(strategy=strategy, seed=0))
    assert _headline(again) == _headline(m)


def test_golden_grid6_bp_lr():
    m = runner.run(fixtures.grid6(), runner.RunConfig(strategy="bp-lr", seed=0))
    ttt, throughput, clearance = GRID6_BP_LR
    assert _headline(m) == (ttt, throughput, throughput, clearance, False)


def test_golden_grid6_bp():
    m = runner.run(fixtures.grid6(), runner.RunConfig(strategy="bp", seed=0))
    ttt, throughput, clearance = GRID6_BP
    assert _headline(m) == (ttt, throughput, throughput, clearance, False)


def test_golden_grid6_mspc_lr():
    m = runner.run(fixtures.grid6(), runner.RunConfig(strategy="mspc-lr", seed=0))
    ttt, throughput, clearance = GRID6_MSPC_LR
    assert _headline(m) == (ttt, throughput, throughput, clearance, False)


def test_golden_grid6_mspc(tmp_path):
    m = runner.run(
        fixtures.grid6(), runner.RunConfig(strategy="mspc", seed=0, out_dir=tmp_path)
    )
    ttt, throughput, clearance = GRID6_MSPC
    assert _headline(m) == (ttt, throughput, throughput, clearance, False)
    rows = _boundary_rows(tmp_path)
    assert _decision_counts(rows) == BOUNDARY_DECISIONS[("grid6", "mspc")]
    assert Counter(r["plan"] for r in rows) == {"both": 383, "fwd": 349, "rev": 354, "none": 34}


@pytest.mark.parametrize("strategy", ["msjc", "mspc"])
def test_golden_corridor2_boundary_decisions(strategy, tmp_path):
    runner.run(
        fixtures.corridor2(),
        runner.RunConfig(strategy=strategy, seed=0, out_dir=tmp_path),
    )
    rows = _boundary_rows(tmp_path)
    assert _decision_counts(rows) == BOUNDARY_DECISIONS[("corridor2", strategy)]


def test_golden_grid6_calibration():
    assert_grid6_calibrated(runner.calibrate(fixtures.grid6(), seed=0))


@pytest.mark.parametrize("strategy", ["msjc", "bp"])
def test_golden_corridor2_writes_every_log(strategy, tmp_path):
    m = runner.run(
        fixtures.corridor2(),
        runner.RunConfig(strategy=strategy, seed=0, out_dir=tmp_path),
    )
    assert m.total_travel_time_veh_s == GOLDEN[strategy][0]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        list(CSV_HEADERS) + ["manifest.json"]
    )
    for name, header in CSV_HEADERS.items():
        with open(tmp_path / name, newline="") as fh:
            assert next(csv.reader(fh)) == header, name


def test_msjc_builds_one_route_set_per_routed_micro_step(monkeypatch):
    # begin_macro's route set serves the first micro step's routes
    calls = Counter()
    generate, routes = runner.routectl.generate_routes, runner.MsjcStrategy.routes

    def counted_generate(*args):
        calls["generate"] += 1
        return generate(*args)

    def counted_routes(self, obs):
        calls["routed"] += self.active
        return routes(self, obs)

    monkeypatch.setattr(runner.routectl, "generate_routes", counted_generate)
    monkeypatch.setattr(runner.MsjcStrategy, "routes", counted_routes)
    metrics = runner.run(fixtures.corridor2(), runner.RunConfig("msjc", seed=0))
    assert (metrics.total_travel_time_veh_s, metrics.clearance_time_s) == GOLDEN["msjc"]
    assert calls["routed"] > 0 and calls["generate"] == calls["routed"]


@pytest.mark.parametrize("strategy", ["bp-lr", "mspc-lr"])
def test_logit_rerouting_draws_like_the_reference(monkeypatch, strategy):
    # Per routed step, the reference runs first; the routing generator is then
    # put back, and the strategy's own rerouting must make the same
    # assignments with the same draws, in the same order.
    logit_routes = runner._logit_routes
    seen = Counter()

    def checked(strat):
        rng = strat.sim.routing_rng
        before = rng.bit_generator.state
        expected = reference_logit_routes(strat)
        after = rng.bit_generator.state
        rng.bit_generator.state = before
        assignments = logit_routes(strat)
        assert assignments == expected
        assert rng.bit_generator.state == after
        seen["steps"] += 1
        seen["drawn"] += after != before
        seen["rerouted"] += len(assignments)
        return assignments

    monkeypatch.setattr(runner, "_logit_routes", checked)
    runner.run(fixtures.grid6(), runner.RunConfig(strategy, seed=0, cap_s=1000.0))
    assert seen["steps"] >= 60 and seen["drawn"] > 0 and seen["rerouted"] > 0


def test_broken_vehicle_balance_raises(monkeypatch, tmp_path):
    advance = mesosim.Simulator.advance

    def leaky_advance(self, plans):
        obs = advance(self, plans)
        self.completed_total += 1
        return obs

    opened = []

    def tracked_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(mesosim.Simulator, "advance", leaky_advance)
    monkeypatch.setattr(runner, "open", tracked_open, raising=False)
    with pytest.raises(
        RuntimeError,
        match=r"created \d+ != completed \d+ \+ in network \d+ \+ entry queue \d+",
    ):
        runner.run(
            fixtures.corridor2(), runner.RunConfig(strategy="bp", seed=0, out_dir=tmp_path)
        )
    assert len(opened) == 6  # five CSV logs and the manifest
    assert all(fh.closed for fh in opened)


def test_results_do_not_depend_on_blas_threads(tmp_path):
    # numpy fixes its BLAS thread count at import, so each run gets its own
    # interpreter.  grid6 msjc seed 0 to 1300 s is the shortest run that once
    # differed between 1 and 2 threads.
    program = (
        "import sys\n"
        "from msjc import fixtures, runner\n"
        "runner.run(fixtures.grid6(), runner.RunConfig('msjc', seed=0, cap_s=1300.0, out_dir=sys.argv[1]))\n"
    )
    src = str(Path(runner.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            PYTHONPATH=src,
        )
        out = tmp_path / f"threads{threads}"
        runs[out] = subprocess.Popen([sys.executable, "-c", program, str(out)], env=env)
    for proc in runs.values():
        assert proc.wait(timeout=300) == 0
    one, two = runs
    for name in ("joint.csv", "metrics.csv"):
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
    # the headline of that run: 984 of 1211 vehicles delivered by the cap
    [m] = runner.read_metrics_csv(one / "metrics.csv")
    assert _headline(m) == (256_180.0, 984, 1211, 1300.0, True)
