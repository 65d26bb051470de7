import csv
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from msjc import baselines, fixtures, mesosim, runner
from msjc.jointctl import MacroState
from msjc.mfd import MfdFitError
from msjc.netmodel import ScenarioError

from oracles import reference_logit_routes
from regen_goldens import boundary_rows, decision_counts, digest, headline

# Every pinned result, in one table that tests/regen_goldens.py regenerates.
#
# HEADLINES: per run, (total travel time veh.s, throughput veh, injected veh,
#   clearance time s, truncated).  corridor2 runs every strategy at seeds 0-1
#   (seed 0 alone, and compare's runs); grid6 every strategy at seed 0, and
#   msjc once more with a 1300 s cap.
# GRID6_STEP_LOGS: SHA-256 of every grid6 strategy's observations.csv and
#   flows.csv.  They pin each micro step's state and each macro step's
#   targets, envelopes and realized flows, so a strategy's decisions cannot
#   drift unseen.
# GRID6_MSJC_LOGS: SHA-256 of grid6 msjc's joint and routing logs, which a
#   one-ulp move in a gating fraction or a split changes where a TTT does
#   not, and of its metrics.csv and manifest.json, which pin how its result
#   and settings are written.
# GRID6_BOUNDARY_LOGS: SHA-256 of the tracked strategies' grid6 boundary.csv.
#   The decision counts survive a move in the last bit of a logged flow
#   estimate (est_fwd, est_rev: sums of lane terms); these do not.
# BOUNDARY_DECISIONS: a run's boundary.csv at seed 0 as (decisions,
#   fallbacks, sum of feasible_count), and GRID6_MSPC_PLANS grid6 mspc's
#   count of each plan chosen.  They pin the boundary controller's choice.
# GRID6_MSJC_ROUTE_COUNTERS: on grid6 msjc seed 0 from 800 to 900 s, the
#   route-choice solves (one per region with a choice and step), their BVLS
#   iterations and the vehicles handed to route generation;
#   test_perfbench_hooks.py checks perfbench's counters against them.
# CORRIDOR2_COMPARE_FILES: SHA-256 of the files compare writes beside the
#   runs' own directories.
# GRID6_CALIBRATED: grid6's calibrated MFD at seed 0, default demand levels
#   0.25-1.25, per region as (b1, b2, b3, n_crit, n_max_fit).  The fit is a
#   LAPACK least-squares solve, so the last digits may depend on the BLAS
#   build.
GOLDENS = json.loads(Path(__file__).with_name("goldens.json").read_text())
HEADLINES = GOLDENS["HEADLINES"]


def assert_grid6_calibrated(model) -> None:
    calibrated = GOLDENS["GRID6_CALIBRATED"]
    assert model.regions() == tuple(calibrated)
    for region, expected in calibrated.items():
        p = model.params[region]
        assert [p.b1, p.b2, p.b3, p.n_crit, p.n_max_fit] == pytest.approx(expected, rel=1e-9)


CSV_HEADERS = {
    "observations.csv": [
        "step", "time_s", "N_R1", "N_R2", "m_R1_R2", "m_R2_R1",
        "queue_total", "entry_queue", "in_network", "completed", "throughput_cum",
    ],
    "joint.csv": [
        "t_index", "time_s", "z", "residual", "feasible",
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


@pytest.mark.parametrize("strategy", runner.STRATEGIES)
def test_golden_corridor2(strategy):
    scenario = fixtures.corridor2()
    m = runner.run(scenario, runner.RunConfig(strategy=strategy, seed=0))
    assert headline(m) == HEADLINES[f"corridor2 {strategy} seed 0"]
    again = runner.run(scenario, runner.RunConfig(strategy=strategy, seed=0))
    assert headline(again) == headline(m)


@pytest.mark.parametrize("strategy", runner.STRATEGIES)
def test_golden_grid6(strategy, tmp_path):
    m = runner.run(
        fixtures.grid6(), runner.RunConfig(strategy=strategy, seed=0, out_dir=tmp_path)
    )
    assert headline(m) == HEADLINES[f"grid6 {strategy} seed 0"]
    for name, expected in GOLDENS["GRID6_STEP_LOGS"][strategy].items():
        assert digest(tmp_path / name) == expected, name
    if strategy == "msjc":
        for name, expected in GOLDENS["GRID6_MSJC_LOGS"].items():
            assert digest(tmp_path / name) == expected, name
    if strategy in GOLDENS["GRID6_BOUNDARY_LOGS"]:
        assert digest(tmp_path / "boundary.csv") == GOLDENS["GRID6_BOUNDARY_LOGS"][strategy]
    if strategy == "mspc":
        assert decision_counts(tmp_path) == GOLDENS["BOUNDARY_DECISIONS"]["grid6 mspc"]
        plans = Counter(r["plan"] for r in boundary_rows(tmp_path))
        assert plans == GOLDENS["GRID6_MSPC_PLANS"]


@pytest.mark.parametrize("strategy", ["msjc", "mspc"])
def test_golden_corridor2_boundary_decisions(strategy, tmp_path):
    runner.run(
        fixtures.corridor2(),
        runner.RunConfig(strategy=strategy, seed=0, out_dir=tmp_path),
    )
    assert decision_counts(tmp_path) == GOLDENS["BOUNDARY_DECISIONS"][f"corridor2 {strategy}"]


def test_golden_corridor2_compare(tmp_path):
    runs = runner.compare(fixtures.corridor2(), tuple(runner.STRATEGIES), (0, 1), out_dir=tmp_path)
    for m in runs:
        assert headline(m) == HEADLINES[f"corridor2 {m.strategy} seed {m.seed}"]
    for name, expected in GOLDENS["CORRIDOR2_COMPARE_FILES"].items():
        assert digest(tmp_path / name) == expected, name


def test_a_cell_is_written_by_its_value():
    values = [None, True, False, 0.1, np.float64(1 / 3), 7, "R1"]
    assert runner._cells(values) == ["", 1, 0, "0.1", "0.3333333333333333", 7, "R1"]


def test_metrics_read_back_as_written(tmp_path):
    # a truncated run that never activated (an empty first_activation_s
    # cell) and a cleared run whose floats need all 17 significant digits
    runs = [
        runner.RunMetrics("bp", 3, 1234.5, 10, 40, 6000.0, True, None),
        runner.RunMetrics("msjc", 0, 0.1 + 0.2, 856, 856, 1650.0000000000002, False, 2 / 3 + 200),
    ]
    runner.report(runs, tmp_path)
    assert runner.read_metrics_csv(tmp_path / "comparison.csv") == runs


def test_golden_grid6_calibration():
    assert_grid6_calibrated(runner.calibrate(fixtures.grid6(), seed=0))


# corridor2 has 10 s micro steps: a window must be a positive whole number
# of them, so that every sample closes and divides its own length.
@pytest.mark.parametrize("window_s", [5.0, 0.0, -10.0, 125.0, math.nan, math.inf])
def test_calibration_window_off_the_micro_step_grid_rejected(window_s):
    with pytest.raises(MfdFitError, match=f"calibration window {window_s} s must be"):
        runner.calibrate(fixtures.corridor2(), window_s=window_s)


@pytest.mark.parametrize("levels", [(-1.0,), (0.5, 0.0), (math.nan, 1.0), (0.5, math.inf)])
def test_calibration_level_not_above_zero_rejected(levels):
    with pytest.raises(MfdFitError, match="calibration levels must be > 0"):
        runner.calibrate(fixtures.corridor2(), levels=levels)


def test_calibration_checks_every_level_before_the_sweep(monkeypatch):
    # sorted, 0.5 would be swept first; 1e300 expects too many vehicles
    built = []
    monkeypatch.setattr(runner, "Simulator", lambda *args, **kwargs: built.append(kwargs))
    with pytest.raises(ScenarioError, match=r"demand scale 1e\+300 expects 1\.35e\+303 vehicles"):
        runner.calibrate(fixtures.grid6(), levels=(0.5, 1e300))
    assert built == []


def test_calibration_whose_flow_dips_below_zero_rejected():
    # at 1% demand corridor2's R2 fits b1 = -0.0756 veh/s per veh: negative
    # completion flow near N = 0
    with pytest.raises(MfdFitError, match="region R2: fitted flow is not positive"):
        runner.calibrate(fixtures.corridor2(), levels=(0.01,))


def test_calibration_window_of_whole_micro_steps_fits_every_region():
    model = runner.calibrate(fixtures.corridor2(), window_s=240.0)
    assert model.regions() == ("R1", "R2")


@pytest.mark.parametrize("strategy", ["msjc", "bp"])
def test_golden_corridor2_writes_every_log(strategy, tmp_path):
    m = runner.run(
        fixtures.corridor2(),
        runner.RunConfig(strategy=strategy, seed=0, out_dir=tmp_path),
    )
    assert headline(m) == HEADLINES[f"corridor2 {strategy} seed 0"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        list(CSV_HEADERS) + ["manifest.json"]
    )
    for name, header in CSV_HEADERS.items():
        with open(tmp_path / name, newline="") as fh:
            assert next(csv.reader(fh)) == header, name


def test_msjc_builds_one_route_set_per_routed_micro_step(monkeypatch):
    # begin_macro's route set serves the first micro step's routes
    calls = Counter()
    generate, routes = runner.routectl.generate_routes, runner.Strategy.routes

    def counted_generate(*args):
        calls["generate"] += 1
        return generate(*args)

    def counted_routes(self, obs):
        calls["routed"] += 1
        return routes(self, obs)

    monkeypatch.setattr(runner.routectl, "generate_routes", counted_generate)
    monkeypatch.setattr(runner.Strategy, "routes", counted_routes)
    metrics = runner.run(fixtures.corridor2(), runner.RunConfig("msjc", seed=0))
    assert headline(metrics) == HEADLINES["corridor2 msjc seed 0"]
    assert calls["routed"] > 0 and calls["generate"] == calls["routed"]


def route_tables_seen(monkeypatch, out_dir=None) -> tuple[Counter, list]:
    """Route guidance's tables over one macro step of msjc on the loaded
    grid, as in the benchmark's windows, logs written to ``out_dir`` (None
    for none), each checked to list its vehicles in id order and to count
    every vehicle of each region it holds: every region with vehicles when
    asked for all, else the regions with a choice.  Returns the checks'
    tallies and the tables in the order they were built."""
    seen, built = Counter(), []
    route_tables, strategy_tables = runner.routectl.route_tables, runner.Strategy._route_tables

    def checked(vehicles, alternatives, net, heads):
        ids = [v.id for v in vehicles]
        assert ids == sorted(ids)
        tables = route_tables(vehicles, alternatives, net, heads)
        for choices in tables.choices.values():
            assert [vr.vid for vr in choices] == sorted(vr.vid for vr in choices)
        return tables

    def counted(self, *args):
        tables = strategy_tables(self, *args)
        vehicles = self.sim.vehicles
        region_of = self.net.region_of
        every_region = not args or args[0]
        if every_region:
            counted_regions = {region_of[v.route[0]] for v in vehicles.values()}
        else:
            counted_regions = set(tables.choices)
        assert set(tables.counts) == counted_regions
        in_counted = sum(region_of[v.route[0]] in counted_regions for v in vehicles.values())
        assert sum(sum(c.destinations.values()) for c in tables.counts.values()) == in_counted
        seen["tables"] += 1
        seen["every region"] += every_region
        seen["all vehicles"] += in_counted == len(vehicles)
        seen["unordered"] += list(vehicles) != sorted(vehicles)
        built.append(tables)
        return tables

    with monkeypatch.context() as patched:
        patched.setattr(runner.routectl, "route_tables", checked)
        patched.setattr(runner.Strategy, "_route_tables", counted)
        config = runner.RunConfig("msjc", seed=0, warmup_s=400.0, cap_s=500.0, out_dir=out_dir)
        runner.run(fixtures.grid6(), config)
    return seen, built


def test_msjc_route_tables_are_in_vehicle_id_order(monkeypatch):
    # Simulator.vehicles is in admission order, not id order; route guidance
    # reads every vehicle in id order, and so lists the route-choice columns
    # and makes the routing draws in id order.  Only the joint program's
    # tables count every region; a micro step's count the regions where a
    # vehicle has a choice
    seen, _ = route_tables_seen(monkeypatch)
    assert seen["tables"] > 0 and seen["unordered"] > 0
    assert seen["every region"] == 1 and seen["all vehicles"] < seen["tables"]


def test_logged_msjc_route_tables_are_those_of_a_quiet_run(monkeypatch, tmp_path):
    # writing logs counts no region more: a logged run builds the quiet
    # run's tables, table for table, under the same checks
    quiet_seen, quiet = route_tables_seen(monkeypatch)
    seen, logged = route_tables_seen(monkeypatch, tmp_path)
    assert seen == quiet_seen and seen["every region"] == 1
    assert len(logged) == seen["tables"] > 1 and logged == quiet


def test_routing_log_explains_without_changing_decisions(monkeypatch, tmp_path):
    # A run with logs computes what a run without them does: the same
    # route-choice solves, one per (micro step, region with a choice), the
    # same draws and the same result.  Only the logged run explains its
    # solves, each once, and routing.csv lists exactly the solved pairs
    solve, explain, routes, make_strategy = (
        runner.routectl.solve_probabilities,
        runner.routectl.explain_routes,
        runner.Strategy.routes,
        runner.make_strategy,
    )
    times, solved, strategies = [], [], []
    calls = Counter()

    def routed(self, obs):
        times.append(obs.time_s)
        return routes(self, obs)

    def solved_probabilities(choices, counts, targets, net, region, *args):
        solved.append((times[-1], region))
        return solve(choices, counts, targets, net, region, *args)

    def explained(*args):
        calls["explain"] += 1
        return explain(*args)

    def made(*args):
        strategies.append(make_strategy(*args))
        return strategies[-1]

    monkeypatch.setattr(runner.Strategy, "routes", routed)
    monkeypatch.setattr(runner.routectl, "solve_probabilities", solved_probabilities)
    monkeypatch.setattr(runner.routectl, "explain_routes", explained)
    monkeypatch.setattr(runner, "make_strategy", made)
    runs = {}
    for out_dir in (None, tmp_path):
        solved.clear()
        calls.clear()
        config = runner.RunConfig("msjc", seed=0, cap_s=1300.0, out_dir=out_dir)
        metrics = runner.run(fixtures.grid6(), config)
        rng = strategies[-1].sim.routing_rng.bit_generator.state
        runs[out_dir] = (metrics, rng, list(solved), calls["explain"])
    quiet_metrics, quiet_rng, quiet_solved, quiet_explained = runs[None]
    metrics, rng, logged_solved, logged_explained = runs[tmp_path]
    assert logged_solved == quiet_solved and len(set(quiet_solved)) == len(quiet_solved) > 0
    assert (logged_explained, quiet_explained) == (len(logged_solved), 0)
    assert metrics == quiet_metrics and metrics.throughput_series == quiet_metrics.throughput_series
    assert rng == quiet_rng
    with open(tmp_path / "routing.csv", newline="") as fh:
        rows = [(float(row["time_s"]), row["region"]) for row in csv.DictReader(fh)]
    assert list(dict.fromkeys(rows)) == logged_solved


@pytest.mark.parametrize("strategy", ["bp-lr", "mspc-lr"])
def test_logit_rerouting_draws_like_the_reference(monkeypatch, strategy):
    # Per routed step, the reference runs first; the routing generator is then
    # put back, and the strategy's own rerouting must make the same
    # assignments with the same draws, in the same order.
    logit_routes = runner.Strategy._logit_routes
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

    monkeypatch.setattr(runner.Strategy, "_logit_routes", checked)
    runner.run(fixtures.grid6(), runner.RunConfig(strategy, seed=0, cap_s=1000.0))
    assert seen["steps"] >= 60 and seen["drawn"] > 0 and seen["rerouted"] > 0


def test_unknown_strategy_rejected_naming_the_presets():
    scenario = fixtures.corridor2()
    with pytest.raises(ValueError, match="unknown strategy 'msjc-lr'") as exc:
        runner.make_strategy("msjc-lr", scenario, None, mesosim.Simulator(scenario, seed=0))
    assert all(f"'{name}'" in str(exc.value) for name in ("msjc", "mspc-lr", "bp-lr", "mspc", "bp"))


@pytest.mark.parametrize("strategy", runner.STRATEGIES)
def test_strategies_act_only_in_active_macro_steps(monkeypatch, tmp_path, strategy):
    # plans, routes and record run in every micro step of an active macro
    # step and in no other: not while warming up, not in an inactive one
    calls = []
    make_strategy = runner.make_strategy

    def watched(*args):
        strat = make_strategy(*args)
        for name in ("plans", "routes", "record"):

            def called(obs, name=name, method=getattr(strat, name)):
                calls.append((name, obs.time_s))
                return method(obs)

            setattr(strat, name, called)
        return strat

    monkeypatch.setattr(runner, "make_strategy", watched)
    scenario = fixtures.corridor2()
    runner.run(scenario, runner.RunConfig(strategy, seed=0, out_dir=tmp_path))
    with open(tmp_path / "flows.csv", newline="") as fh:
        macro = {r["t_index"]: (float(r["time_s"]), r["active"]) for r in csv.DictReader(fh)}
    assert {active for _, active in macro.values()} == {"0", "1"}
    dt, u = scenario.control.t_micro_s, scenario.control.steps_per_macro
    # a micro step's start time; record sees the state at its end
    steps = [
        end - (u - k) * dt for end, active in macro.values() if active == "1" for k in range(u)
    ]
    assert steps[0] == scenario.demand.warmup_s
    assert [t for name, t in calls if name == "plans"] == steps
    assert [t for name, t in calls if name == "routes"] == steps
    assert [t - dt for name, t in calls if name == "record"] == steps


def _count_arrivals(monkeypatch) -> list[float]:
    """Wrap ``Simulator.arrivals``; the list gets the simulator time of every
    call."""
    calls = []
    arrivals = mesosim.Simulator.arrivals

    def counted(self):
        calls.append(self.time_s)
        return arrivals(self)

    monkeypatch.setattr(mesosim.Simulator, "arrivals", counted)
    return calls


@pytest.mark.parametrize("strategy", ["bp", "bp-lr"])
def test_untracked_strategies_never_project_arrivals(monkeypatch, strategy):
    calls = _count_arrivals(monkeypatch)
    m = runner.run(fixtures.grid6(), runner.RunConfig(strategy, seed=0, cap_s=600.0))
    assert m.first_activation_s is not None
    assert calls == []


def test_calibration_never_projects_arrivals(monkeypatch):
    calls = _count_arrivals(monkeypatch)
    runner.calibrate(fixtures.grid6(), levels=(0.25, 0.5))
    assert calls == []


@pytest.mark.parametrize("strategy", ["msjc", "mspc", "mspc-lr"])
def test_tracked_strategies_project_arrivals_once_per_active_step(
    monkeypatch, tmp_path, strategy
):
    # one projection per active micro step: the one that sets a macro step's
    # flow envelopes serves its first plans; none while warming up or in an
    # inactive macro step, and none after a step's new routes are set (the
    # projection reads the routes)
    calls = _count_arrivals(monkeypatch)
    routed = []
    set_route = mesosim.Simulator.set_route

    def recorded(self, vid, route):
        routed.append((self.time_s, len(calls)))
        return set_route(self, vid, route)

    monkeypatch.setattr(mesosim.Simulator, "set_route", recorded)
    scenario = fixtures.grid6()
    m = runner.run(scenario, runner.RunConfig(strategy, seed=0, out_dir=tmp_path))
    with open(tmp_path / "flows.csv", newline="") as fh:
        active = {r["t_index"]: r["active"] for r in csv.DictReader(fh)}
    assert "0" in active.values() and m.first_activation_s == scenario.demand.warmup_s
    # every boundary decides in every active micro step; count one of them
    one = "|".join(scenario.partition.boundary_keys()[0])
    rows = [r for r in boundary_rows(tmp_path) if r["boundary"] == one]
    micro = Counter(float(r["time_s"]) for r in rows)
    macro = Counter(float(r["time_s"]) for r in rows if r["k"] == "1")
    assert len(macro) == list(active.values()).count("1")
    assert Counter(calls) == micro
    assert min(calls) == scenario.demand.warmup_s
    assert bool(routed) == (strategy != "mspc")
    assert all(t not in calls[n:] for t, n in routed)


def test_pi_gating_restarts_after_an_inactive_macro_step(monkeypatch):
    # PI gating keeps (last target, receiving accumulation) per ordered
    # boundary: an active macro step carries it on, an inactive one empties
    # it, and the next active step starts again from the flow realized in
    # the macro step before and the accumulation then
    scenario = fixtures.corridor2()
    sim = mesosim.Simulator(scenario, seed=0)
    strategy = runner.make_strategy("mspc", scenario, None, sim)
    envelope = ((0.0, 2.0), (0.0, 2.0))
    monkeypatch.setattr(runner.BoundaryController, "macro_flow_bounds", lambda *args: envelope)
    steps = []
    monkeypatch.setattr(
        runner, "pi_target", lambda *args: steps.append(args[:3]) or baselines.pi_target(*args)
    )
    partition = scenario.partition

    def begin(active, n_r2, realized_r1_r2):
        # R1 holds 10 vehicles throughout; one PI step per ordered boundary,
        # (R1, R2) then (R2, R1), each as (m_prev, n_prev, n_h)
        n = {("R1", "R1"): 10.0, ("R2", "R2"): n_r2}
        state = MacroState(n, {}, 100.0, partition.regions, partition.adjacency)
        realized = {("R1", "R2"): realized_r1_r2, ("R2", "R1"): 0.2}
        ctx = runner.MacroContext(0, 0.0, state, sim.initial_observation(), active, realized)
        steps.clear()
        strategy.begin_macro(ctx)
        return steps

    assert begin(True, 20.0, 0.3) == [(0.3, 20.0, 20.0), (0.2, 10.0, 10.0)]
    last = strategy.macro.targets
    assert strategy.pi_state == {
        ("R1", "R2"): (last[("R1", "R2")], 20.0),
        ("R2", "R1"): (last[("R2", "R1")], 10.0),
    }
    assert begin(True, 30.0, 0.9) == [
        (last[("R1", "R2")], 20.0, 30.0),
        (last[("R2", "R1")], 10.0, 10.0),
    ]
    assert begin(False, 40.0, 0.7) == [] and strategy.pi_state == {}
    assert begin(True, 50.0, 0.6) == [(0.6, 50.0, 50.0), (0.2, 10.0, 10.0)]


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
    [m] = runner.read_metrics_csv(one / "metrics.csv")
    assert headline(m) == HEADLINES["grid6 msjc seed 0 cap 1300"]
