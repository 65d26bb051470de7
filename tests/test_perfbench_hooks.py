"""perfbench's timers wrap names that still exist, and its counters read
what the runs did.

``perfbench/workloads.bind_layers`` replaces package attributes by name; a
renamed function only shows up there as a failed wrapper self-check after a
full benchmark run.  The first test binds the hooks with a stub tracer,
which runs nothing.  The second binds the real tracer around three short
corridor2 runs and checks the boundary fallback counter against the runs'
own ``boundary.csv``, and that injection and rerouting still reach the
route search through the names the timers wrap.  The third checks msjc's
solve counters against what the solves themselves returned and against the
run's ``joint.csv``.  The fourth checks the route-choice counters on a grid6
msjc window against the solves they wrap and the pins of
``tests/goldens.json``, and the call shapes they read.  The last runs corridor2 under
the hooks of an untraced run (``workloads.Watch``), once per strategy, and
checks their step times and travel time against the run's own.
"""

import csv
import json
from pathlib import Path

import pytest

from msjc import fixtures, routectl, runner

from regen_goldens import GRID6_MSJC_WINDOW

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# pinned by tests/regen_goldens.py
ROUTE_COUNTERS = json.loads(Path(__file__).with_name("goldens.json").read_text())[
    "GRID6_MSJC_ROUTE_COUNTERS"
]


class CheckingTracer:
    def __init__(self):
        self.names: list[str] = []

    def wrap(self, owner, attr, name, on_return=None):
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no callable {attr}"
        self.names.append(name)


def test_every_perfbench_hook_names_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    tracer = CheckingTracer()
    workloads.bind_layers(tracer)
    assert len(tracer.names) == len(set(tracer.names)) >= 20
    for workload in workloads.WORKLOADS:
        assert workloads.EXPECTED_BUSY[workload] <= set(tracer.names)


def test_boundary_counters_match_the_runs_logs(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from layers import Tracer

    decisions = fallbacks = 0
    with Tracer() as tracer:
        workloads.bind_layers(tracer)
        for strategy in ("msjc", "mspc-lr", "bp-lr"):
            out = tmp_path / strategy
            runner.run(fixtures.corridor2(), runner.RunConfig(strategy, seed=0, out_dir=out))
            with open(out / "boundary.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            decisions += len(rows)
            fallbacks += sum(r["fallback"] == "1" for r in rows)
    metrics = workloads.layer_metrics(tracer.layers)
    step = "boundaryctl.BoundaryController.control_step"
    assert fallbacks > 0
    assert metrics[f"{step}.calls"] == decisions
    assert metrics[f"{step}.fallback"] == fallbacks
    assert metrics["boundaryctl.fallback_ratio"] == fallbacks / decisions
    assert metrics["baselines.bp_control.calls"] > 0
    for layer in (
        "mesosim.Simulator.shortest_route",
        "mesosim.Simulator.travel_time_estimates",
        "routectl.generate_routes",
        "routectl.shortest_paths_to",
    ):
        assert metrics[f"{layer}.calls"] > 0, layer


def test_msjc_solve_counters_match_the_solves(monkeypatch, tmp_path):
    # corridor2 at seed 5 has one infeasible joint solve
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from layers import Tracer

    with_choice = []
    solve_probabilities = routectl.solve_probabilities

    def counting(*args):
        out = solve_probabilities(*args)
        with_choice.append(len(out.phi))  # one entry per two-candidate vehicle
        return out

    monkeypatch.setattr(routectl, "solve_probabilities", counting)
    with Tracer() as tracer:
        workloads.bind_layers(tracer)
        runner.run(fixtures.corridor2(), runner.RunConfig("msjc", seed=5, out_dir=tmp_path))
    with open(tmp_path / "joint.csv", newline="") as fh:
        feasible = [row["feasible"] for row in csv.DictReader(fh)]
    metrics = workloads.layer_metrics(tracer.layers)
    assert sum(with_choice) > 0 and "0" in feasible
    assert metrics["routectl.solve_probabilities.calls"] == len(with_choice)
    assert metrics["routectl.solve_probabilities.free_variables"] == 2 * sum(with_choice)
    assert metrics["jointctl.solve.calls"] == len(feasible)
    assert metrics["jointctl.solve.infeasible"] == feasible.count("0")


def test_msjc_route_counters_read_what_they_did_before(monkeypatch):
    # perfbench's route-choice counters read the solve's first positional
    # argument as the vehicles with a choice (``_count_route_choice``) and
    # generate_routes' first as every vehicle (``_count_vehicles``); on one
    # grid6 msjc window their values are the ones the per-vehicle candidate
    # sets gave: two free variables per choice vehicle, and the pinned
    # counts
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from layers import Tracer

    seen = {"solves": 0, "choice_vehicles": 0, "vehicles": 0}
    solve_probabilities, generate_routes = routectl.solve_probabilities, routectl.generate_routes

    def solve_checked(*args):
        assert len(args) == 8
        choices = args[0]
        assert all(len(vr.routes) == 2 for vr in choices)
        assert [vr.vid for vr in choices] == sorted(vr.vid for vr in choices)
        seen["solves"] += 1
        seen["choice_vehicles"] += len(choices)
        return solve_probabilities(*args)

    def generate_checked(*args):
        [sim] = sims
        assert sorted(v.id for v in args[0]) == sorted(sim.vehicles)
        seen["vehicles"] += len(args[0])
        return generate_routes(*args)

    sims = []
    make_strategy = runner.make_strategy
    monkeypatch.setattr(
        runner, "make_strategy", lambda *args: sims.append(args[3]) or make_strategy(*args)
    )
    monkeypatch.setattr(routectl, "solve_probabilities", solve_checked)
    monkeypatch.setattr(routectl, "generate_routes", generate_checked)
    with Tracer() as tracer:
        workloads.bind_layers(tracer)
        runner.run(fixtures.grid6(), GRID6_MSJC_WINDOW)
    metrics = workloads.layer_metrics(tracer.layers)
    pins = ROUTE_COUNTERS
    assert metrics["routectl.solve_probabilities.calls"] == seen["solves"] == pins["solves"]
    assert metrics["routectl.solve_probabilities.free_variables"] == 2 * seen["choice_vehicles"]
    assert metrics["routectl.solve_probabilities.iterations"] == pins["iterations"]
    assert metrics["routectl.generate_routes.vehicles"] == seen["vehicles"] == pins["vehicles"]


@pytest.mark.parametrize("strategy", runner.STRATEGIES)
def test_untraced_hooks_time_every_active_step(monkeypatch, strategy):
    # an untraced benchmark run times only the strategy hooks that
    # workloads.Watch puts around runner.make_strategy's strategy
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    scenario = fixtures.corridor2()
    with workloads.Watch() as watch:
        metrics = runner.run(scenario, runner.RunConfig(strategy, seed=0))
    assert watch.macro_ms
    assert len(watch.micro_ms) == scenario.control.steps_per_macro * len(watch.macro_ms)
    ttt = sum(rec.ttt_veh_s for rec in watch.sims.values())
    assert ttt == metrics.total_travel_time_veh_s
