"""Run orchestration on the two control time scales.

One run wires a strategy to the simulator: every macro step the strategy
receives the region-level state and sets boundary targets (or nothing);
every micro step it activates a multi-phase plan per boundary and may
reassign vehicle routes.  Runs terminate at network clearance or a hard
time cap, and emit stable CSV logs plus a manifest for reproducibility.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from . import jointctl, mfd as mfdmod, routectl
from .baselines import PiController, bp_control, logit_choice, pi_target, route_travel_time
from .boundaryctl import BoundaryController, BoundaryDecision
from .jointctl import ControlBounds, ControlSolution
from .macrodyn import MacroState
from .mesosim import MicroObservation, Simulator
from .mfd import MfdModel, MfdSample
from .netmodel import Scenario, boundary_key

logger = logging.getLogger(__name__)

STRATEGIES = ("msjc", "mspc-lr", "bp-lr", "mspc", "bp")


@dataclass
class RunConfig:
    strategy: str
    seed: int = 0
    demand_scale: float = 1.0
    out_dir: str | Path | None = None
    cap_s: float | None = None  # default: control.cap_factor * demand horizon
    warmup_s: float | None = None  # default: scenario warmup


@dataclass
class RunMetrics:
    """Headline results of one run.  Every field but the series is a column
    of ``metrics.csv`` and ``comparison.csv``, in field order."""

    strategy: str
    seed: int
    total_travel_time_veh_s: float
    throughput_veh: int
    injected_veh: int
    clearance_time_s: float
    truncated: bool
    first_activation_s: float | None
    throughput_series: list[tuple[float, int]] = field(repr=False, default_factory=list)


_METRIC_COLUMNS = [f for f in fields(RunMetrics) if f.name != "throughput_series"]


@dataclass
class MacroContext:
    t_index: int
    time_s: float
    state: MacroState
    obs: MicroObservation
    active: bool
    realized_prev: dict[tuple[str, str], float]


@dataclass
class RoutingRow:
    """Realized against target split of one (region, next, destination)
    after one route-choice solve; a row of ``routing.csv``."""

    time_s: float
    region: str
    dest_region: str
    next_region: str
    target: float
    realized: float
    target_term: float
    homogeneity_term: float


@dataclass
class MacroRecord:
    """What a strategy set and saw during one macro step.  ``begin_macro``
    starts a new one; the run loop reads it once the macro step ends."""

    targets: dict[tuple[str, str], float] = field(default_factory=dict)
    envelopes: dict[tuple[str, str], tuple[float, float]] = field(default_factory=dict)
    solution: ControlSolution | None = None
    decisions: list[BoundaryDecision] = field(default_factory=list)
    routing: list[RoutingRow] = field(default_factory=list)


def _require_mfd(scenario: Scenario, model: MfdModel | None) -> MfdModel:
    if model is not None:
        return model
    if scenario.mfd is not None:
        return MfdModel(scenario.mfd)
    raise ValueError(
        "no calibrated MFD: embed an 'mfd' block in the scenario or run calibrate"
    )


# ---------------------------------------------------------------------------
# Strategies.  Each has the same four methods: ``begin_macro(ctx)`` once per
# macro step, then per micro step ``plans(obs)`` (plan id per boundary key),
# ``routes(obs)`` (new routes by vehicle id, or None) and, after the
# simulator stepped, ``record(obs)``.  ``macro`` holds the current MacroRecord.


class _TrackedStrategy:
    """Shared plumbing for strategies that realize macro flow targets
    through the boundary flow-tracking controller."""

    def __init__(self, scenario: Scenario, model: MfdModel, sim: Simulator):
        self.scenario = scenario
        self.net = scenario.network
        self.model = model
        self.sim = sim
        self.controllers = {
            key: BoundaryController(self.net, key, scenario.control)
            for key in scenario.partition.boundary_keys()
        }
        self.active = False
        self.macro = MacroRecord()

    def _begin_boundaries(self, ctx: MacroContext) -> None:
        for (i, h), bc in self.controllers.items():
            (f_lo, f_hi), (r_lo, r_hi) = bc.macro_flow_bounds(ctx.obs)
            self.macro.envelopes[(i, h)] = (f_lo, f_hi)
            self.macro.envelopes[(h, i)] = (r_lo, r_hi)

    def _set_targets(self, targets: dict[tuple[str, str], float]) -> None:
        self.macro.targets = targets
        for (i, h), bc in self.controllers.items():
            bc.begin_macro(targets.get((i, h), 0.0), targets.get((h, i), 0.0))

    def plans(self, obs: MicroObservation) -> dict[tuple[str, str], str]:
        if not self.active:
            return {}
        return {key: bc.control_step(obs) for key, bc in self.controllers.items()}

    def record(self, obs: MicroObservation) -> None:
        if not self.active:
            return
        for bc in self.controllers.values():
            bc.record_realized(obs)
            self.macro.decisions.append(bc.last_decision)


class MsjcStrategy(_TrackedStrategy):
    """Joint gating/routing optimization on top of the tracking controller.

    ``begin_macro`` keeps the route set it builds for the first micro step's
    ``routes``: demand injection and plan selection in between change
    neither the network vehicles nor the queues."""

    def __init__(self, scenario: Scenario, model: MfdModel, sim: Simulator):
        super().__init__(scenario, model, sim)
        # begin_macro's route set, until the first micro step's routes
        self._route_set: list[routectl.VehicleRoutes] | None = None

    def _annotated_routes(self) -> list[routectl.VehicleRoutes]:
        views = self.sim.vehicle_views()
        alternatives = routectl.generate_routes(views, self.net, self.sim.travel_time_estimates())
        return routectl.annotate_routes(views, alternatives, self.net, self.scenario.control.t_micro_s)

    def begin_macro(self, ctx: MacroContext) -> None:
        self.active = ctx.active
        self.macro = MacroRecord()
        self._route_set = None
        if not ctx.active:
            return
        self._begin_boundaries(ctx)

        self._route_set = self._annotated_routes()
        candidates = routectl.candidate_next_regions(self._route_set)
        c_min, c_max = jointctl.route_bounds(candidates, self.scenario.partition.adjacency)
        envelopes = self.macro.envelopes
        bounds = ControlBounds(
            m_min={k: v[0] for k, v in envelopes.items()},
            m_max={k: v[1] for k, v in envelopes.items()},
            c_min=c_min,
            c_max=c_max,
        )
        self.macro.solution = jointctl.solve(ctx.state, self.model, bounds)
        self._set_targets(dict(self.macro.solution.m))

    def routes(self, obs: MicroObservation) -> dict[int, tuple[str, ...]] | None:
        solution = self.macro.solution
        if not self.active or solution is None:
            return None
        route_set = self._route_set
        if route_set is None:
            route_set = self._annotated_routes()
        self._route_set = None
        assignments: dict[int, tuple[str, ...]] = {}
        for region in self.scenario.partition.regions:
            in_region = [vr for vr in route_set if vr.region == region]
            if not in_region:
                continue
            probs = routectl.solve_probabilities(
                in_region,
                solution.c,
                self.net,
                region,
                float(obs.accumulation[region]),
                self.scenario.control.route_beta,
                self.scenario.partition.adjacency,
            )
            chosen = routectl.assign_routes(in_region, probs.phi, self.sim.routing_rng)
            current = {vr.vid: vr.routes[0].links for vr in in_region}
            for vid, route in chosen.items():
                if route != current[vid]:
                    assignments[vid] = route
            for (i, h, j), realized in sorted(probs.realized.items()):
                self.macro.routing.append(
                    RoutingRow(
                        time_s=obs.time_s,
                        region=region,
                        dest_region=j,
                        next_region=h,
                        target=solution.c.get((i, h, j), 0.0),
                        realized=realized,
                        target_term=probs.target_term,
                        homogeneity_term=probs.homogeneity_term,
                    )
                )
        return assignments


class PiStrategy(_TrackedStrategy):
    """PI gating targets realized through the tracking controller, with or
    without logit route guidance."""

    def __init__(
        self, scenario: Scenario, model: MfdModel, sim: Simulator, routing: bool
    ):
        super().__init__(scenario, model, sim)
        self.routing = routing
        control = scenario.control
        self.pi = {
            (i, h): PiController(
                kp=control.pi_kp,
                ki=control.pi_ki,
                setpoint=model.critical(h),
            )
            for i, h in scenario.partition.ordered_boundaries()
        }

    def begin_macro(self, ctx: MacroContext) -> None:
        self.active = ctx.active
        self.macro = MacroRecord()
        if not ctx.active:
            for pi in self.pi.values():
                pi.deactivate()
            return
        self._begin_boundaries(ctx)
        targets = {}
        for (i, h), pi in sorted(self.pi.items()):
            n_h = ctx.state.accumulation(h)
            if pi.n_prev is None:
                pi.reset(ctx.realized_prev.get((i, h), 0.0), n_h)
            lo, hi = self.macro.envelopes[(i, h)]
            targets[(i, h)] = pi_target(pi, n_h, lo, hi)
        self._set_targets(targets)

    def routes(self, obs: MicroObservation) -> dict[int, tuple[str, ...]] | None:
        if not self.active or not self.routing:
            return None
        return _logit_routes(self)


class BpStrategy:
    """Pure backpressure at boundary intersections, optional logit routing.
    It sets no targets, so its macro record stays empty."""

    def __init__(self, scenario: Scenario, sim: Simulator, routing: bool):
        self.scenario = scenario
        self.net = scenario.network
        self.sim = sim
        self.routing = routing
        self.active = False
        self.macro = MacroRecord()

    def begin_macro(self, ctx: MacroContext) -> None:
        self.active = ctx.active

    def plans(self, obs: MicroObservation) -> dict[tuple[str, str], str]:
        if not self.active:
            return {}
        return {
            key: bp_control(obs, self.net, key)
            for key in self.scenario.partition.boundary_keys()
        }

    def routes(self, obs: MicroObservation) -> dict[int, tuple[str, ...]] | None:
        if not self.active or not self.routing:
            return None
        return _logit_routes(self)

    def record(self, obs: MicroObservation) -> None:
        pass


def _logit_routes(strategy) -> dict[int, tuple[str, ...]]:
    """One logit draw per vehicle that has an alternative, in id order."""
    sim: Simulator = strategy.sim
    tt = sim.travel_time_estimates()
    theta = strategy.scenario.control.logit_theta
    alternatives = routectl.generate_routes(sim.vehicles.values(), strategy.net, tt)
    assignments: dict[int, tuple[str, ...]] = {}
    for vid in sorted(alternatives):
        best = alternatives[vid]
        times = [route_travel_time(sim.vehicles[vid].route, tt), route_travel_time(best, tt)]
        phi = logit_choice(times, theta)
        if int(sim.routing_rng.choice(len(phi), p=phi)) == 1:
            assignments[vid] = best
    return assignments


def make_strategy(
    name: str, scenario: Scenario, model: MfdModel | None, sim: Simulator
):
    model = _require_mfd(scenario, model)
    if name == "msjc":
        return MsjcStrategy(scenario, model, sim)
    if name == "mspc-lr":
        return PiStrategy(scenario, model, sim, routing=True)
    if name == "mspc":
        return PiStrategy(scenario, model, sim, routing=False)
    if name == "bp-lr":
        return BpStrategy(scenario, sim, routing=True)
    if name == "bp":
        return BpStrategy(scenario, sim, routing=False)
    raise ValueError(f"unknown strategy '{name}' (choose from {STRATEGIES})")


# ---------------------------------------------------------------------------
# Run loop


def _build_macro_state(
    scenario: Scenario, od_counts: Mapping[tuple[str, str], int], t_index: int, q: Mapping
) -> MacroState:
    n = {}
    for i in scenario.partition.regions:
        for j in scenario.partition.regions:
            n[(i, j)] = float(od_counts.get((i, j), 0))
    return MacroState(
        t=t_index,
        n=n,
        q=dict(q),
        t_macro_s=scenario.control.t_macro_s,
        regions=scenario.partition.regions,
        adjacency=scenario.partition.adjacency,
    )


@dataclass
class JointRow:
    """Joint program outcome of one macro step; ``joint.csv`` follows these
    columns with the gating fractions b_i_h and target flows M_i_h.  The gaps
    are the distances to the relaxation's bounds (``ControlSolution``)."""

    t_index: int
    time_s: float
    z: float
    residual: float
    feasible: bool
    z_gap: float
    flow_gap: float


@dataclass
class FlowRow:
    """Target, envelope and realized flow of one ordered boundary over one
    macro step; a row of ``flows.csv``."""

    t_index: int
    time_s: float
    from_region: str
    to_region: str
    active: bool
    target: float
    m_min: float
    m_max: float
    realized: float
    fallback_steps: int


def _header(row_type) -> list[str]:
    return [f.name for f in fields(row_type)]


def _cells(row, columns=None) -> list:
    """A row dataclass as CSV cells in field order: floats exactly (repr),
    flags as 0/1 and a missing value as an empty cell.  The declared type
    (annotation text) of each field picks the format."""
    cells = []
    for f in columns or fields(row):
        value = getattr(row, f.name)
        if value is None:
            cells.append("")
        elif f.type.startswith("float"):
            cells.append(_fmt(value))
        elif f.type == "bool":
            cells.append(int(value))
        else:
            cells.append(value)
    return cells


def _fmt(x: float) -> str:
    return repr(float(x))


class _RunLogs:
    """Streaming CSV writers with stable schemas across strategies."""

    def __init__(self, out_dir: Path, scenario: Scenario):
        out_dir.mkdir(parents=True, exist_ok=True)
        self._regions = regions = scenario.partition.regions
        self._boundaries = boundaries = scenario.partition.ordered_boundaries()
        with ExitStack() as files:

            def open_csv(name: str, header: list[str]):
                writer = csv.writer(files.enter_context(open(out_dir / name, "w", newline="")))
                writer.writerow(header)
                return writer

            self._obs = open_csv(
                "observations.csv",
                ["step", "time_s"]
                + [f"N_{r}" for r in regions]
                + [f"m_{i}_{h}" for i, h in boundaries]
                + ["queue_total", "entry_queue", "in_network", "completed", "throughput_cum"],
            )
            self._joint = open_csv(
                "joint.csv",
                _header(JointRow)
                + [f"b_{i}_{h}" for i, h in boundaries]
                + [f"M_{i}_{h}" for i, h in boundaries],
            )
            self._boundary = open_csv("boundary.csv", _header(BoundaryDecision))
            self._routing = open_csv("routing.csv", _header(RoutingRow))
            self._flows = open_csv("flows.csv", _header(FlowRow))
            self.close = files.pop_all().close  # keep the files open past the with

    def observation(self, obs: MicroObservation, throughput_cum: int) -> None:
        self._obs.writerow(
            [obs.step, _fmt(obs.time_s)]
            + [obs.accumulation[r] for r in self._regions]
            + [_fmt(obs.boundary_crossings[(i, h)]) for i, h in self._boundaries]
            + [obs.queue_total(), obs.entry_queue, obs.in_network, obs.completed, throughput_cum]
        )

    def macro_step(
        self,
        ctx: MacroContext,
        rec: MacroRecord,
        end_s: float,
        realized: dict[tuple[str, str], float],
    ) -> None:
        """Rows of one finished macro step that started at ``ctx``."""
        sol = rec.solution
        if sol is not None:
            self._joint.writerow(
                _cells(
                    JointRow(
                        ctx.t_index,
                        ctx.time_s,
                        sol.z,
                        sol.residual,
                        sol.feasible,
                        sol.z_gap,
                        sol.flow_gap,
                    )
                )
                + [_fmt(sol.b.get(key, 1.0)) for key in self._boundaries]
                + [_fmt(sol.m.get(key, 0.0)) for key in self._boundaries]
            )
        self._boundary.writerows(_cells(d) for d in rec.decisions)
        self._routing.writerows(_cells(r) for r in rec.routing)
        fallbacks = Counter(d.boundary for d in rec.decisions if d.fallback)
        for i, h in self._boundaries:
            m_min, m_max = rec.envelopes.get((i, h), (0.0, 0.0))
            row = FlowRow(
                t_index=ctx.t_index,
                time_s=end_s,
                from_region=i,
                to_region=h,
                active=ctx.active,
                target=rec.targets.get((i, h), 0.0),
                m_min=m_min,
                m_max=m_max,
                realized=realized.get((i, h), 0.0),
                fallback_steps=fallbacks["|".join(boundary_key(i, h))],
            )
            self._flows.writerow(_cells(row))


def run(
    scenario: Scenario,
    config: RunConfig,
    model: MfdModel | None = None,
) -> RunMetrics:
    """Execute one closed-loop run and return its metrics.

    Total travel time is time in system: every vehicle counts from the step
    it was created (including entry-queue waiting) until it completes.
    """
    control = scenario.control
    dt = control.t_micro_s
    u = control.steps_per_macro
    sim = Simulator(scenario, seed=config.seed, demand_scale=config.demand_scale)
    model = _require_mfd(scenario, model)
    strategy = make_strategy(config.strategy, scenario, model, sim)

    warmup_s = config.warmup_s if config.warmup_s is not None else scenario.demand.warmup_s
    horizon = scenario.demand.horizon_s
    cap_s = config.cap_s if config.cap_s is not None else control.cap_factor * horizon

    logs = None
    if config.out_dir is not None:
        out_dir = Path(config.out_dir)
        logs = _RunLogs(out_dir, scenario)
    try:
        if logs:
            manifest = {
                "scenario": scenario.name,
                "strategy": config.strategy,
                "seed": config.seed,
                "demand_scale": config.demand_scale,
                "warmup_s": warmup_s,
                "cap_s": cap_s,
                "t_macro_s": control.t_macro_s,
                "t_micro_s": control.t_micro_s,
                "sigma": control.sigma,
                "activation_threshold": control.activation_threshold,
            }
            with open(out_dir / "manifest.json", "w") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)

        obs = sim.initial_observation()
        ttt = 0.0
        metrics = RunMetrics(
            strategy=config.strategy,
            seed=config.seed,
            total_travel_time_veh_s=0.0,
            throughput_veh=0,
            injected_veh=0,
            clearance_time_s=math.nan,
            truncated=False,
            first_activation_s=None,
        )

        def after_step(o: MicroObservation) -> None:
            nonlocal ttt
            ttt += (o.in_network + o.entry_queue) * dt
            if logs:
                logs.observation(o, sim.completed_total)

        warmup_steps = int(round(warmup_s / dt))
        for _ in range(warmup_steps):
            sim.inject_demand(sim.step_count)
            obs = sim.advance({})
            after_step(obs)

        prev_admitted: dict[tuple[str, str], float] = {}
        realized_prev: dict[tuple[str, str], float] = {}
        t_index = 0
        cleared_at: float | None = None

        while True:
            state = _build_macro_state(scenario, sim.od_counts(), t_index, prev_admitted)
            active = any(
                state.accumulation(r) > control.activation_threshold * model.critical(r)
                for r in scenario.partition.regions
            )
            if active and metrics.first_activation_s is None:
                metrics.first_activation_s = sim.time_s

            ctx = MacroContext(
                t_index=t_index,
                time_s=sim.time_s,
                state=state,
                obs=obs,
                active=active,
                realized_prev=dict(realized_prev),
            )
            strategy.begin_macro(ctx)

            window_admitted: dict[tuple[str, str], float] = {}
            window_crossed: dict[tuple[str, str], float] = {}
            for _ in range(u):
                sim.inject_demand(sim.step_count)
                plans = strategy.plans(obs)
                assignments = strategy.routes(obs)
                if assignments:
                    for vid in sorted(assignments):
                        sim.set_route(vid, assignments[vid])
                obs = sim.advance(plans)
                strategy.record(obs)
                after_step(obs)
                for key, count in obs.admitted_od.items():
                    window_admitted[key] = window_admitted.get(key, 0.0) + count
                for key, rate in obs.boundary_crossings.items():
                    window_crossed[key] = window_crossed.get(key, 0.0) + rate * dt
                if (
                    cleared_at is None
                    and obs.in_network == 0
                    and obs.entry_queue == 0
                    and sim.time_s >= horizon
                ):
                    cleared_at = sim.time_s

            if sim.created_total != sim.completed_total + obs.in_network + obs.entry_queue:
                raise RuntimeError(
                    f"vehicle conservation broken at t={sim.time_s:.0f}s: "
                    f"created {sim.created_total} != completed {sim.completed_total}"
                    f" + in network {obs.in_network} + entry queue {obs.entry_queue}"
                )

            realized_prev = {
                key: total / control.t_macro_s for key, total in window_crossed.items()
            }
            if logs:
                logs.macro_step(ctx, strategy.macro, sim.time_s, realized_prev)
            metrics.throughput_series.append((sim.time_s, sim.completed_total))

            prev_admitted = window_admitted
            t_index += 1
            if cleared_at is not None:
                break
            if sim.time_s >= cap_s:
                metrics.truncated = True
                logger.warning(
                    "%s seed %d: hit time cap %.0fs before clearance",
                    config.strategy,
                    config.seed,
                    cap_s,
                )
                break

        metrics.total_travel_time_veh_s = ttt
        metrics.throughput_veh = sim.completed_total
        metrics.injected_veh = sim.created_total
        metrics.clearance_time_s = cleared_at if cleared_at is not None else sim.time_s
        if logs:
            _write_metrics_csv(out_dir / "metrics.csv", [metrics])
    finally:
        if logs:
            logs.close()
    return metrics


# ---------------------------------------------------------------------------
# Calibration


def calibrate(
    scenario: Scenario,
    levels: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0, 1.25),
    seed: int = 0,
    window_s: float = 120.0,
) -> MfdModel:
    """Uncontrolled demand sweep; samples accumulation and completion flow
    per aggregation window and fits the per-region cubics."""
    if len(levels) < 2:
        logger.warning("calibration with %d demand level(s): narrow accumulation range", len(levels))
    control = scenario.control
    dt = control.t_micro_s
    window_steps = int(round(window_s / dt))
    cap_s = control.cap_factor * scenario.demand.horizon_s
    regions = scenario.partition.regions
    samples: list[MfdSample] = []
    for li, level in enumerate(sorted(levels)):
        sim = Simulator(scenario, seed=seed + li, demand_scale=level)
        acc_sum = {r: 0.0 for r in regions}
        flow = {r: 0.0 for r in regions}
        steps_in_window = 0
        while True:
            sim.inject_demand(sim.step_count)
            obs = sim.advance({})
            for r in regions:
                acc_sum[r] += obs.accumulation[r]
                internal = obs.completions_by_region.get(r, 0)
                outflow = sum(
                    obs.boundary_crossings.get((r, h), 0.0) * dt
                    for h in scenario.partition.adjacency[r]
                )
                flow[r] += outflow + internal
            steps_in_window += 1
            if steps_in_window == window_steps:
                for r in regions:
                    samples.append(
                        MfdSample(
                            region=r,
                            accumulation_veh=acc_sum[r] / window_steps,
                            completion_veh_s=flow[r] / window_s,
                        )
                    )
                acc_sum = {r: 0.0 for r in regions}
                flow = {r: 0.0 for r in regions}
                steps_in_window = 0
            if obs.in_network == 0 and obs.entry_queue == 0 and sim.time_s >= scenario.demand.horizon_s:
                break
            if sim.time_s >= cap_s:
                logger.warning("calibration level %.2f hit the time cap", level)
                break
    return mfdmod.fit(samples)


# ---------------------------------------------------------------------------
# Comparison & reporting


def compare(
    scenario: Scenario,
    strategies: tuple[str, ...],
    seeds: tuple[int, ...],
    out_dir: str | Path | None = None,
    model: MfdModel | None = None,
) -> list[RunMetrics]:
    runs = []
    for strategy in strategies:
        for seed in seeds:
            sub = None
            if out_dir is not None:
                sub = Path(out_dir) / f"{strategy}_seed{seed}"
            cfg = RunConfig(strategy=strategy, seed=seed, out_dir=sub)
            logger.info("running %s seed %d", strategy, seed)
            runs.append(run(scenario, cfg, model=model))
    if out_dir is not None:
        report(runs, out_dir)
    return runs


def _write_metrics_csv(path: Path, runs: list[RunMetrics]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f.name for f in _METRIC_COLUMNS])
        w.writerows(_cells(m, _METRIC_COLUMNS) for m in runs)


def read_metrics_csv(path) -> list[RunMetrics]:
    """Runs written to ``metrics.csv`` or ``comparison.csv``, without series."""
    parse = {
        "str": str,
        "int": int,
        "float": float,
        "bool": lambda cell: bool(int(cell)),
        "float | None": lambda cell: float(cell) if cell else None,
    }
    with open(path, newline="") as fh:
        return [
            RunMetrics(**{f.name: parse[f.type](row[f.name]) for f in _METRIC_COLUMNS})
            for row in csv.DictReader(fh)
        ]


@dataclass
class SummaryRow:
    """Per-strategy spread of the headline metrics; a row of ``summary.csv``."""

    strategy: str
    runs: int
    mean_total_travel_time_veh_s: float
    std_total_travel_time_veh_s: float
    mean_throughput_veh: float
    std_throughput_veh: float
    truncated_runs: int


def summarize(runs: list[RunMetrics]) -> list[SummaryRow]:
    """Per-strategy mean and standard deviation of the headline metrics,
    sorted by mean total travel time."""
    by_strategy: dict[str, list[RunMetrics]] = {}
    for m in runs:
        by_strategy.setdefault(m.strategy, []).append(m)
    rows = []
    for strategy, ms in by_strategy.items():
        ttt = np.array([m.total_travel_time_veh_s for m in ms])
        thr = np.array([m.throughput_veh for m in ms], dtype=float)
        rows.append(
            SummaryRow(
                strategy=strategy,
                runs=len(ms),
                mean_total_travel_time_veh_s=float(ttt.mean()),
                std_total_travel_time_veh_s=float(ttt.std()),
                mean_throughput_veh=float(thr.mean()),
                std_throughput_veh=float(thr.std()),
                truncated_runs=sum(m.truncated for m in ms),
            )
        )
    rows.sort(key=lambda r: r.mean_total_travel_time_veh_s)
    return rows


def report(runs: list[RunMetrics], out_dir: str | Path) -> list[SummaryRow]:
    """Comparison table plus plot-ready series with replication spread."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_metrics_csv(out / "comparison.csv", runs)

    rows = summarize(runs)
    with open(out / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_header(SummaryRow))
        w.writerows(_cells(r) for r in rows)

    # Runs read back from comparison.csv carry no series; keep the file the
    # original comparison wrote.
    if not any(m.throughput_series for m in runs):
        return rows
    by_strategy: dict[str, list[RunMetrics]] = {}
    for m in runs:
        by_strategy.setdefault(m.strategy, []).append(m)
    with open(out / "throughput_series.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["strategy", "time_s", "mean_throughput_cum", "std_throughput_cum"])
        for strategy in sorted(by_strategy):
            ms = by_strategy[strategy]
            length = max(len(m.throughput_series) for m in ms)
            times = max(
                (m.throughput_series for m in ms), key=len
            )
            for idx in range(length):
                vals = []
                for m in ms:
                    series = m.throughput_series
                    vals.append(series[min(idx, len(series) - 1)][1])
                arr = np.array(vals, dtype=float)
                w.writerow(
                    [strategy, _fmt(times[idx][0]), _fmt(arr.mean()), _fmt(arr.std())]
                )
    return rows
