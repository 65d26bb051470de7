"""The grid6 workloads, the hooks that observe them and the output checks.

Each workload is a fixed list of items (one ``runner.run`` or one
``runner.calibrate`` call) that makes up one *pass*; a benchmark run repeats
the pass on fresh seeds.  Items call the package only through its public
entry points (``fixtures.grid6``, ``runner.run``, ``runner.calibrate``), so
the timers in ``layers`` see exactly the calls a user's run makes.
"""

from __future__ import annotations

import math
import statistics
import traceback
from dataclasses import dataclass, field
from typing import Callable

from msjc import boundaryctl, fixtures, jointctl, mesosim, mfd, routectl, runner

from layers import Layer, Patches, Tracer, clock
from speed import SpeedProbe

WORKLOADS = ("grid6-msjc", "grid6-baselines", "grid6-calibrate")
BASELINES = ("mspc-lr", "bp-lr", "mspc", "bp")
CALIBRATION_LEVELS = (0.25, 0.5, 0.75, 1.0, 1.25)  # the CLI's default sweep

# grid6-msjc: a full msjc run takes 30-180 s on one core and its cost varies
# about 2.5x between seeds, so a pass is instead three one-macro-step
# windows of msjc control.  Window k runs uncontrolled up to WINDOW_STARTS_S[k]
# (the run's warm-up) and then hands the network to msjc for one macro step,
# so the windows sample the controller's decisions at light, rising and peak
# load.
WINDOW_STARTS_S = (400.0, 800.0, 1200.0)
WINDOW_S = 100.0

# Rescaled wall time of one pass (``speed``) with one BLAS thread, measured
# on the reference machine (2-CPU x86 VM).  A run makes
# round(seconds / PASS_S) - 1 passes and then runs its first pass again to
# check determinism, so the amount of work in a run is fixed by --seconds
# and is the same on every commit.
PASS_S = {"grid6-msjc": 2.0, "grid6-baselines": 1.2, "grid6-calibrate": 0.63}
SEED_STRIDE = 1000  # item seeds of a run: seed * SEED_STRIDE + offset

SETUP_REPEATS = 60  # spread over the run's passes


@dataclass
class Item:
    label: str
    call: Callable[[], object]  # returns RunMetrics or MfdModel
    warmup_steps: int  # leading simulator steps outside the control loop
    units: int = 1  # runs or calibration levels the item attempts
    windowed: bool = False  # the run ends at its cap by design


@dataclass
class Outcome:
    label: str
    value: object = None  # RunMetrics, MfdModel or None when the item raised
    error: str = ""
    units: int = 1  # runs or calibration levels
    failed: int = 0
    ttt_veh_s: float = 0.0
    throughput_veh: int = 0
    sim_s: float = 0.0
    step_s: list[float] = field(default_factory=list)  # every simulator step, rescaled
    loop_step_s: list[float] = field(default_factory=list)  # steps after warm-up, rescaled
    macro_ms: list[float] = field(default_factory=list)
    micro_ms: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def signature(self) -> object:
        """What two runs of the same item must reproduce exactly."""
        if isinstance(self.value, runner.RunMetrics):
            m = self.value
            return (m.total_travel_time_veh_s, m.throughput_veh, m.clearance_time_s)
        if isinstance(self.value, mfd.MfdModel):
            return self.value.to_dict()
        return self.error


@dataclass
class PassResult:
    wall_s: float
    outcomes: list[Outcome]


class _SimRecord:
    def __init__(self, sim: mesosim.Simulator):
        self.sim = sim  # held so that id() stays unique within an item
        self.stamps: list[tuple[float, float]] = []  # (step start, probe time so far)
        self.ttt_veh_s = 0.0
        self.last_obs: mesosim.MicroObservation | None = None


class Watch(Patches):
    """Light hooks used with tracing off and on.

    ``Simulator.advance`` records the time each step starts and the state it
    leaves (for TTT and conservation).  The strategy's ``begin_macro``,
    ``plans`` and ``routes`` are timed on active steps; these are the only
    timers of an untraced run.  With a ``probe``, the machine's speed is
    sampled between steps and step times are rescaled by it (``speed``).
    """

    def __init__(self, probe: SpeedProbe | None = None) -> None:
        super().__init__()
        self.probe = probe
        self.sims: dict[int, _SimRecord] = {}
        self.macro_ms: list[float] = []
        self.micro_ms: list[float] = []
        self.replace(mesosim.Simulator, "advance", self._stamped)
        self.replace(runner, "make_strategy", self._timed_strategy)

    def reset(self) -> None:
        self.sims = {}
        self.macro_ms = []
        self.micro_ms = []

    def _stamped(self, advance: Callable) -> Callable:
        probe = self.probe

        def stamped(sim, *args, **kwargs):
            if probe is not None:
                probe.tick()
            paused = probe.paused_s if probe is not None else 0.0
            start = clock()
            obs = advance(sim, *args, **kwargs)
            rec = self.sims.get(id(sim))
            if rec is None:
                rec = self.sims[id(sim)] = _SimRecord(sim)
            rec.stamps.append((start, paused))
            rec.ttt_veh_s += (obs.in_network + obs.entry_queue) * sim.dt
            rec.last_obs = obs
            return obs

        return stamped

    def _timed_strategy(self, make_strategy: Callable) -> Callable:
        def timed_make(*args, **kwargs):
            strategy = make_strategy(*args, **kwargs)
            begin, plans, routes = strategy.begin_macro, strategy.plans, strategy.routes
            state = {"active": False, "plans_s": 0.0}

            def begin_macro(ctx):
                t0 = clock()
                begin(ctx)
                busy = _rescaled(self.probe, t0, clock() - t0)
                state["active"] = ctx.active
                if ctx.active:
                    self.macro_ms.append(busy * 1e3)

            def timed_plans(obs):
                t0 = clock()
                out = plans(obs)
                state["plans_s"] = _rescaled(self.probe, t0, clock() - t0)
                return out

            def timed_routes(obs):
                t0 = clock()
                out = routes(obs)
                if state["active"]:
                    busy = _rescaled(self.probe, t0, clock() - t0)
                    self.micro_ms.append((busy + state["plans_s"]) * 1e3)
                return out

            strategy.begin_macro = begin_macro
            strategy.plans = timed_plans
            strategy.routes = timed_routes
            return strategy

        return timed_make


# ---------------------------------------------------------------------------
# Workload definitions


def item_seed(seed: int, offset: int) -> int:
    return seed * SEED_STRIDE + offset


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_S[workload]) - 1)


def pass_items(workload: str, seed: int, pass_index: int) -> list[Item]:
    """The items of one pass; the scenario is built inside the pass."""
    scenario = fixtures.grid6()
    control = scenario.control
    default_warmup = int(round(scenario.demand.warmup_s / control.t_micro_s))
    if workload == "grid6-msjc":
        items = []
        for k, start in enumerate(WINDOW_STARTS_S):
            s = item_seed(seed, pass_index * len(WINDOW_STARTS_S) + k)
            cfg = runner.RunConfig("msjc", seed=s, warmup_s=start, cap_s=start + WINDOW_S)
            items.append(
                Item(
                    f"msjc window {start:.0f}-{start + WINDOW_S:.0f} s, seed {s}",
                    lambda cfg=cfg: runner.run(scenario, cfg),
                    warmup_steps=int(round(start / control.t_micro_s)),
                    windowed=True,
                )
            )
        return items
    if workload == "grid6-baselines":
        s = item_seed(seed, pass_index)
        return [
            Item(
                f"{name} seed {s}",
                lambda name=name: runner.run(scenario, runner.RunConfig(name, seed=s)),
                warmup_steps=default_warmup,
            )
            for name in BASELINES
        ]
    if workload == "grid6-calibrate":
        s = item_seed(seed, pass_index * len(CALIBRATION_LEVELS))
        return [
            Item(
                f"calibrate seed {s}",
                lambda: runner.calibrate(scenario, levels=CALIBRATION_LEVELS, seed=s),
                warmup_steps=0,
                units=len(CALIBRATION_LEVELS),
            )
        ]
    raise ValueError(f"unknown workload '{workload}' (choose from {WORKLOADS})")


def setup_once(workload: str) -> None:
    """Build the scenario, the simulators and the strategies a pass starts
    with, without stepping them."""
    scenario = fixtures.grid6()
    if workload == "grid6-calibrate":
        for k in range(len(CALIBRATION_LEVELS)):
            mesosim.Simulator(scenario, seed=k, demand_scale=CALIBRATION_LEVELS[k])
        return
    names = ("msjc",) if workload == "grid6-msjc" else BASELINES
    for name in names:
        sim = mesosim.Simulator(scenario, seed=0)
        runner.make_strategy(name, scenario, None, sim)


def setup_seconds(workload: str, repeats: int, probe: SpeedProbe) -> list[float]:
    """Set-up times, rescaled by the machine's speed (``speed``)."""
    times = []
    probe.sample()
    for _ in range(repeats):
        t0 = clock()
        setup_once(workload)
        times.append(probe.scale(t0, clock() - t0))
    return times


# ---------------------------------------------------------------------------
# Running and checking


def run_item(item: Item, watch: Watch) -> Outcome:
    watch.reset()
    out = Outcome(item.label, units=item.units)
    try:
        out.value = item.call()
    except Exception:  # a failed run is counted, reported and the pass goes on
        out.error = traceback.format_exc()
    if out.error:
        out.failed = out.units
        out.problems.append(f"{item.label}: raised\n{out.error}")
        return out

    for rec in watch.sims.values():
        out.ttt_veh_s += rec.ttt_veh_s
        out.throughput_veh += rec.sim.completed_total
        out.sim_s += rec.sim.time_s
        # a step's time runs from its advance to the next one, so it covers
        # demand injection, the strategy's decisions and rerouting too
        periods = [
            _rescaled(watch.probe, a, (b - a) - (paused_b - paused_a))
            for (a, paused_a), (b, paused_b) in zip(rec.stamps, rec.stamps[1:])
        ]
        out.step_s += periods
        out.loop_step_s += periods[max(0, item.warmup_steps - 1) :]
        out.failed += _sim_failed(rec, out, item)
    out.macro_ms = list(watch.macro_ms)
    out.micro_ms = list(watch.micro_ms)
    out.failed = min(out.failed, out.units)

    if isinstance(out.value, runner.RunMetrics):
        m = out.value
        if abs(m.total_travel_time_veh_s - out.ttt_veh_s) > 1e-6 * max(1.0, out.ttt_veh_s):
            out.problems.append(
                f"{item.label}: TTT {m.total_travel_time_veh_s} != {out.ttt_veh_s} summed from the steps"
            )
        if not m.truncated and m.throughput_veh != m.injected_veh:
            out.problems.append(
                f"{item.label}: cleared with throughput {m.throughput_veh} != injected {m.injected_veh}"
            )
        if m.truncated and not item.windowed:
            out.failed = 1
    if isinstance(out.value, mfd.MfdModel):
        for region, p in out.value.params.items():
            coefficients = (p.b1, p.b2, p.b3, p.n_crit)
            if not all(math.isfinite(c) for c in coefficients) or p.n_crit <= 0:
                out.problems.append(f"{item.label}: region {region} fitted {coefficients}")
    return out


def _rescaled(probe: SpeedProbe | None, at: float, seconds: float) -> float:
    return seconds if probe is None else probe.scale(at, seconds)


def _sim_failed(rec: _SimRecord, out: Outcome, item: Item) -> int:
    """1 if this simulator broke vehicle conservation or (in a calibration
    sweep) stopped at the time cap before clearing.  A conserving simulator
    that cleared has completed every vehicle it created."""
    sim, obs = rec.sim, rec.last_obs
    if obs is None:
        return 0
    if sim.created_total != sim.completed_total + obs.in_network + obs.entry_queue:
        out.problems.append(f"{item.label}: vehicles not conserved")
        return 1
    cleared = obs.in_network == 0 and obs.entry_queue == 0
    return int(isinstance(out.value, mfd.MfdModel) and not cleared)


def run_pass(workload: str, seed: int, pass_index: int, watch: Watch) -> PassResult:
    t0 = clock()
    items = pass_items(workload, seed, pass_index)
    outcomes = [run_item(item, watch) for item in items]
    return PassResult(clock() - t0, outcomes)


def compare(first: list[Outcome], second: list[Outcome], what: str) -> list[str]:
    problems = []
    for a, b in zip(first, second):
        if a.signature() != b.signature():
            problems.append(f"{what}: {a.label} gave {a.signature()} then {b.signature()}")
    return problems


# ---------------------------------------------------------------------------
# Layers


def _count_vehicles(layer: Layer, args, kwargs, result) -> None:
    layer.add("vehicles", len(args[0]))


def _count_route_choice(layer: Layer, args, kwargs, result) -> None:
    layer.add("iterations", result.iterations)
    layer.add("free_variables", sum(len(vr.routes) for vr in args[0] if len(vr.routes) > 1))


def _count_joint(layer: Layer, args, kwargs, result) -> None:
    layer.add("infeasible", 0 if result.feasible else 1)
    layer.counts["max_residual"] = max(layer.counts.get("max_residual", 0.0), result.residual)


def _count_fallback(layer: Layer, args, kwargs, result) -> None:
    layer.add("fallback", 1 if args[0].last_decision.fallback else 0)


def _count_samples(layer: Layer, args, kwargs, result) -> None:
    layer.add("samples", len(args[0]))


def bind_layers(tracer: Tracer) -> None:
    """Wrap every layer at the name its caller looks up."""
    sim = mesosim.Simulator
    for method in ("advance", "inject_demand", "shortest_route", "set_route", "travel_time_estimates"):
        tracer.wrap(sim, method, f"mesosim.Simulator.{method}")
    tracer.wrap(routectl, "generate_routes", "routectl.generate_routes", _count_vehicles)
    tracer.wrap(routectl, "shortest_paths_to", "routectl.shortest_paths_to")
    tracer.wrap(routectl, "solve_probabilities", "routectl.solve_probabilities", _count_route_choice)
    tracer.wrap(routectl, "assign_routes", "routectl.assign_routes")
    tracer.wrap(jointctl, "solve", "jointctl.solve", _count_joint)
    tracer.wrap(jointctl, "route_bounds", "jointctl.route_bounds")
    bc = boundaryctl.BoundaryController
    tracer.wrap(bc, "control_step", "boundaryctl.BoundaryController.control_step", _count_fallback)
    tracer.wrap(bc, "macro_flow_bounds", "boundaryctl.BoundaryController.macro_flow_bounds")
    for name in ("bp_control", "logit_choice", "pi_target"):
        tracer.wrap(runner, name, f"baselines.{name}")
    tracer.wrap(mfd, "fit", "mfd.fit", _count_samples)
    tracer.wrap(fixtures, "scenario_from_dict", "netmodel.scenario_from_dict")
    tracer.wrap(runner, "run", "runner.run")
    tracer.wrap(runner, "calibrate", "runner.calibrate")


# Layers each workload must call (wrapper self-check); every other bound
# layer may be idle.  The route-choice and joint solves must be idle outside
# grid6-msjc.
_SIM = {f"mesosim.Simulator.{m}" for m in ("advance", "inject_demand", "shortest_route", "travel_time_estimates")}
EXPECTED_BUSY = {
    "grid6-msjc": _SIM
    | {
        "mesosim.Simulator.set_route",
        "routectl.generate_routes",
        "routectl.shortest_paths_to",
        "routectl.solve_probabilities",
        "routectl.assign_routes",
        "jointctl.solve",
        "jointctl.route_bounds",
        "boundaryctl.BoundaryController.control_step",
        "boundaryctl.BoundaryController.macro_flow_bounds",
        "netmodel.scenario_from_dict",
        "runner.run",
    },
    "grid6-baselines": _SIM
    | {
        "mesosim.Simulator.set_route",
        "routectl.generate_routes",
        "routectl.shortest_paths_to",
        "boundaryctl.BoundaryController.control_step",
        "boundaryctl.BoundaryController.macro_flow_bounds",
        "baselines.bp_control",
        "baselines.logit_choice",
        "baselines.pi_target",
        "netmodel.scenario_from_dict",
        "runner.run",
    },
    "grid6-calibrate": _SIM | {"mfd.fit", "netmodel.scenario_from_dict", "runner.calibrate"},
}
EXPECTED_IDLE = {
    "grid6-msjc": set(),
    "grid6-baselines": {"routectl.solve_probabilities", "jointctl.solve"},
    "grid6-calibrate": {"routectl.solve_probabilities", "jointctl.solve"},
}


def wrapper_check(workload: str, layers: dict[str, Layer]) -> list[str]:
    problems = []
    for name in sorted(EXPECTED_BUSY[workload]):
        if layers[name].calls == 0:
            problems.append(f"wrapper self-check: {name} never called on {workload}")
    for name in sorted(EXPECTED_IDLE[workload]):
        if layers[name].calls != 0:
            problems.append(f"wrapper self-check: {name} called {layers[name].calls}x on {workload}")
    return problems


def layer_metrics(layers: dict[str, Layer]) -> dict[str, float]:
    """Per-layer metric values of one traced pass (units: BENCHMARK.json)."""
    out: dict[str, float] = {}
    for name, layer in layers.items():
        if name.startswith("runner."):
            out[f"{name}.self_s"] = layer.self_s
            continue
        out[f"{name}.calls"] = float(layer.calls)
        out[f"{name}.busy_s"] = layer.busy_s
        for key, value in layer.counts.items():
            out[f"{name}.{key}"] = value
    route_choice = layers["routectl.solve_probabilities"].durations_s
    out["routectl.solve_probabilities.p50_ms"] = quantile(route_choice, 0.5) * 1e3
    out["routectl.solve_probabilities.p90_ms"] = quantile(route_choice, 0.9) * 1e3
    out["jointctl.solve.p50_ms"] = quantile(layers["jointctl.solve"].durations_s, 0.5) * 1e3
    # counts of a layer the workload never called are zeros
    for key in (
        "routectl.generate_routes.vehicles",
        "routectl.solve_probabilities.iterations",
        "routectl.solve_probabilities.free_variables",
        "jointctl.solve.infeasible",
        "jointctl.solve.max_residual",
        "boundaryctl.BoundaryController.control_step.fallback",
        "mfd.fit.samples",
    ):
        out.setdefault(key, 0.0)
    steps = layers["boundaryctl.BoundaryController.control_step"].calls
    fallback = out["boundaryctl.BoundaryController.control_step.fallback"]
    out["boundaryctl.fallback_ratio"] = fallback / steps if steps else 0.0
    return out


def self_time_total(layers: dict[str, Layer]) -> float:
    return sum(layer.self_s for layer in layers.values())


# ---------------------------------------------------------------------------
# Statistics


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def trimmed_mean(values: list[float], cut: float = 0.1) -> float:
    """Mean of the values left after dropping the lowest and the highest
    ``cut`` share; 0 for no samples."""
    if not values:
        return 0.0
    k = int(cut * len(values))
    return statistics.fmean(sorted(values)[k : len(values) - k])
