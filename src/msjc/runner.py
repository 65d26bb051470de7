"""Run orchestration on the two control time scales.

One run wires a strategy to the simulator: every macro step the strategy
receives the region-level state and sets boundary targets (or nothing);
every micro step it activates a multi-phase plan per boundary and may
reassign vehicle routes.  Runs terminate at network clearance or a hard
time cap.  Given an output directory, a run writes ``manifest.json`` and
CSV logs with the same columns for every strategy, and ``report`` writes
the tables across runs; every CSV cell follows one rule on its value.
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
from typing import Mapping, Sequence

import numpy as np

from . import jointctl, mfd as mfdmod, routectl
from .baselines import bp_control, logit_choice, pi_target
from .boundaryctl import BoundaryController, BoundaryDecision, sum_in_order
from .jointctl import ControlBounds, ControlSolution, MacroState
from .mesosim import MicroObservation, Simulator, check_demand_scale
from .mfd import MfdFitError, MfdModel, MfdSample
from .netmodel import Scenario, ScenarioError, boundary_key

logger = logging.getLogger(__name__)


@dataclass
class RunConfig:
    strategy: str
    seed: int = 0
    demand_scale: float = 1.0
    out_dir: str | Path | None = None
    cap_s: float | None = None  # default: control.cap_factor * demand horizon
    warmup_s: float | None = None  # default: scenario warmup

    def time_cap_s(self, scenario: Scenario) -> float:
        """The run's hard stop: ``cap_s``, or the scenario's cap factor times
        its demand horizon."""
        if self.cap_s is not None:
            return self.cap_s
        return scenario.control.cap_factor * scenario.demand.horizon_s


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
class MacroRecord:
    """What a strategy set and saw during one macro step.  ``begin_macro``
    starts a new one; the run loop reads it once the macro step ends."""

    targets: dict[tuple[str, str], float] = field(default_factory=dict)
    envelopes: dict[tuple[str, str], tuple[float, float]] = field(default_factory=dict)
    solution: ControlSolution | None = None
    decisions: list[BoundaryDecision] = field(default_factory=list)
    # per route-choice solve (micro step, region with a choice): time and
    # decision, which ``routing.csv`` explains
    routing: list[tuple[float, routectl.RouteProbabilities]] = field(default_factory=list)


def _require_mfd(scenario: Scenario, model: MfdModel | None) -> MfdModel:
    if model is not None:
        return model
    if scenario.mfd is not None:
        return MfdModel(scenario.mfd)
    raise ScenarioError(
        "no calibrated MFD: embed an 'mfd' block in the scenario, or fit one with "
        "calibrate and pass it (--mfd)"
    )


# ---------------------------------------------------------------------------
# Strategies.  Each name in STRATEGIES is a preset of two parts:
# - an upper level that sets boundary flow targets once per macro step:
#   "joint" (the joint program) or "pi" (PI gating).  Its targets are
#   realized by one BoundaryController per boundary.  Without one (None)
#   each boundary takes its max-pressure plan over the full plan set;
# - a route rule that may reassign vehicles every micro step: "splits"
#   (route choice toward the joint program's splits: it counts and solves
#   only the regions where a vehicle has a choice, and ``macro.routing``
#   keeps each decision for the logs to explain in ``routing.csv``),
#   "logit" (logit rerouting) or None.
# The run loop calls ``begin_macro(ctx)`` once per macro step, then, only in
# an active macro step, per micro step ``plans(obs)`` (plan id per boundary
# key), ``routes(obs)`` (new routes by vehicle id, or None) and, after the
# simulator stepped, ``record(obs)``.  ``macro`` holds the current
# MacroRecord.  ``begin_macro`` and ``plans`` may read ``sim.arrivals()``:
# both run before the step's new routes are set, on the state the previous
# step left, so the projection ``begin_macro`` builds from it serves the
# first micro step (demand injection only stages vehicles).  So do the
# joint program's route tables, for the first step's route choice.

STRATEGIES: dict[str, tuple[str | None, str | None]] = {
    "msjc": ("joint", "splits"),
    "mspc-lr": ("pi", "logit"),
    "bp-lr": (None, "logit"),
    "mspc": ("pi", None),
    "bp": (None, None),
}


class Strategy:
    """One preset of STRATEGIES wired to a simulator: its upper level
    ``upper`` and its route rule ``route_rule``.  Whether the run writes
    logs changes nothing it computes."""

    def __init__(
        self,
        scenario: Scenario,
        model: MfdModel,
        sim: Simulator,
        upper: str | None,
        route_rule: str | None,
    ):
        self.scenario = scenario
        self.net = scenario.network
        self.model = model
        self.sim = sim
        self.upper = upper
        self.route_rule = route_rule
        self.macro = MacroRecord()
        self.controllers = {
            key: BoundaryController(self.net, key, scenario.control)
            for key in scenario.partition.boundary_keys()
            if upper is not None
        }
        # PI gating's state per ordered boundary (i, h): its last target and
        # h's accumulation then; emptied by an inactive macro step
        self.pi_state: dict[tuple[str, str], tuple[float, float]] = {}
        # begin_macro's projection and route tables, until the first micro
        # step's plans and routes
        self._arrivals: dict[str, float] | None = None
        self._tables: routectl.RouteTables | None = None

    def begin_macro(self, ctx: MacroContext) -> None:
        self.macro = MacroRecord()
        if not ctx.active:
            self.pi_state.clear()
            return
        if self.upper is None:
            return
        self._arrivals = self.sim.arrivals()
        for (i, h), bc in self.controllers.items():
            (f_lo, f_hi), (r_lo, r_hi) = bc.macro_flow_bounds(ctx.obs, self._arrivals)
            self.macro.envelopes[(i, h)] = (f_lo, f_hi)
            self.macro.envelopes[(h, i)] = (r_lo, r_hi)
        targets = self._joint_targets(ctx) if self.upper == "joint" else self._pi_targets(ctx)
        self.macro.targets = targets
        for (i, h), bc in self.controllers.items():
            bc.begin_macro(targets.get((i, h), 0.0), targets.get((h, i), 0.0))

    def _joint_targets(self, ctx: MacroContext) -> dict[tuple[str, str], float]:
        self._tables = self._route_tables()
        envelopes = self.macro.envelopes
        bounds = ControlBounds(
            {k: v[0] for k, v in envelopes.items()},
            {k: v[1] for k, v in envelopes.items()},
            *jointctl.route_bounds(
                self._tables.counts, self._tables.choices, self.scenario.partition.adjacency
            ),
        )
        self.macro.solution = jointctl.solve(ctx.state, self.model, bounds)
        return dict(self.macro.solution.m)

    def _pi_targets(self, ctx: MacroContext) -> dict[tuple[str, str], float]:
        """One PI step per ordered boundary.  The first step of a run or after
        an inactive macro step starts from the flow realized in the macro
        step before and the accumulation now."""
        c = self.scenario.control
        targets = {}
        for i, h in sorted(self.scenario.partition.ordered_boundaries()):
            n_h = ctx.state.accumulation(h)
            m_prev, n_prev = self.pi_state.get((i, h), (ctx.realized_prev.get((i, h), 0.0), n_h))
            lo, hi = self.macro.envelopes[(i, h)]
            m = pi_target(m_prev, n_prev, n_h, self.model.critical(h), c.pi_kp, c.pi_ki, lo, hi)
            targets[(i, h)] = m
            self.pi_state[(i, h)] = (m, n_h)
        return targets

    def plans(self, obs: MicroObservation) -> dict[tuple[str, str], str]:
        if self.upper is None:
            return {
                key: bp_control(obs, self.net, key)
                for key in self.scenario.partition.boundary_keys()
            }
        arrivals = self._arrivals if self._arrivals is not None else self.sim.arrivals()
        self._arrivals = None
        return {key: bc.control_step(obs, arrivals) for key, bc in self.controllers.items()}

    def routes(self, obs: MicroObservation) -> dict[int, tuple[str, ...]] | None:
        if self.route_rule == "splits":
            return self._split_routes(obs)
        if self.route_rule == "logit":
            return self._logit_routes()
        return None

    def record(self, obs: MicroObservation) -> None:
        for bc in self.controllers.values():
            bc.record_realized(obs)
            self.macro.decisions.append(bc.last_decision)

    def _route_tables(self, every_region: bool = True) -> routectl.RouteTables:
        """The route tables of the simulator's vehicles, in id order.  Every
        region is counted for the joint program's ``jointctl.route_bounds``,
        which needs them all.  Otherwise only the regions that hold a vehicle
        with an alternative are: the others have nothing to decide, and a
        region's counts come only from its own vehicles."""
        sim, region_of = self.sim, self.net.region_of
        # id order fixes the solve's columns and the routing draws
        vehicles = [sim.vehicles[vid] for vid in sorted(sim.vehicles)]
        alternatives = routectl.generate_routes(vehicles, self.net, sim.travel_time_estimates())
        if not every_region:
            chosen = {region_of[sim.vehicles[vid].route[0]] for vid in alternatives}
            vehicles = [v for v in vehicles if region_of[v.route[0]] in chosen]
        return routectl.route_tables(vehicles, alternatives, self.net, sim.queue_heads())

    def _split_routes(self, obs: MicroObservation) -> dict[int, tuple[str, ...]]:
        """Route choice toward the joint solution's splits, in each region
        where a vehicle has a choice (a region without one makes no draw).
        Each decision is kept in ``macro.routing``."""
        solution = self.macro.solution
        tables = self._tables if self._tables is not None else self._route_tables(False)
        self._tables = None
        assignments: dict[int, tuple[str, ...]] = {}
        for region in self.scenario.partition.regions:
            if region not in tables.choices:
                continue
            choices, counts = tables.choices[region], tables.counts[region]
            args = (counts, solution.c, self.net, region, float(obs.accumulation[region]))
            args += (self.scenario.control.route_beta, self.scenario.partition.adjacency)
            probs = routectl.solve_probabilities(choices, *args)
            # only vehicles with a choice draw, in id order
            chosen = routectl.assign_routes(choices, probs.phi, self.sim.routing_rng)
            for vr in choices:
                if chosen[vr.vid] != vr.routes[0].links:
                    assignments[vr.vid] = chosen[vr.vid]
            self.macro.routing.append((obs.time_s, probs))
        return assignments

    def _logit_routes(self) -> dict[int, tuple[str, ...]]:
        """One logit draw per vehicle that has an alternative, in id order."""
        sim = self.sim
        tt = sim.travel_time_estimates()
        theta = self.scenario.control.logit_theta
        alternatives = routectl.generate_routes(sim.vehicles.values(), self.net, tt)
        assignments: dict[int, tuple[str, ...]] = {}
        for vid in sorted(alternatives):
            best = alternatives[vid]
            times = [sum_in_order(tt, sim.vehicles[vid].route), sum_in_order(tt, best)]
            if routectl.draw_two(logit_choice(times, theta), sim.routing_rng):
                assignments[vid] = best
        return assignments


def make_strategy(
    name: str, scenario: Scenario, model: MfdModel | None, sim: Simulator
) -> Strategy:
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy '{name}' (choose from {tuple(STRATEGIES)})")
    return Strategy(scenario, _require_mfd(scenario, model), sim, *STRATEGIES[name])


# ---------------------------------------------------------------------------
# Run loop


def _build_macro_state(
    scenario: Scenario, od_counts: Mapping[tuple[str, str], int], q: Mapping
) -> MacroState:
    regions = scenario.partition.regions
    return MacroState(
        n={(i, j): float(od_counts.get((i, j), 0)) for i in regions for j in regions},
        q=dict(q),
        t_macro_s=scenario.control.t_macro_s,
        regions=regions,
        adjacency=scenario.partition.adjacency,
    )


def _cells(values) -> list:
    """CSV cells by value: None is an empty cell, a flag 0/1, a float (numpy's
    too) its exact repr, and anything else itself."""
    cells = []
    for value in values:
        if value is None:
            cells.append("")
        elif isinstance(value, bool):
            cells.append(int(value))
        elif isinstance(value, (float, np.floating)):
            cells.append(repr(float(value)))
        else:
            cells.append(value)
    return cells


class _RunLogs:
    """A run's manifest, and its CSV logs streamed with the same columns for
    every strategy."""

    def __init__(
        self, out_dir: Path, scenario: Scenario, config: RunConfig, warmup_s: float, cap_s: float
    ):
        out_dir.mkdir(parents=True, exist_ok=True)
        control = scenario.control
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
        self._beta = control.route_beta
        self._regions = regions = scenario.partition.regions
        self._boundaries = boundaries = scenario.partition.ordered_boundaries()
        self._decision_fields = [f.name for f in fields(BoundaryDecision)]
        with ExitStack() as files:

            def open_csv(name: str, header: Sequence[str]):
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
            # a row per joint solve (ControlSolution): its worst overshoot, residual
            # and feasibility, then gating fractions b_i_h and target flows M_i_h
            self._joint = open_csv(
                "joint.csv",
                ("t_index", "time_s", "z", "residual", "feasible")
                + tuple(f"b_{i}_{h}" for i, h in boundaries)
                + tuple(f"M_{i}_{h}" for i, h in boundaries),
            )
            self._boundary = open_csv("boundary.csv", self._decision_fields)
            # a row: the realized against the target split of one (region, next,
            # destination) after one route-choice decision
            self._routing = open_csv(
                "routing.csv",
                ("time_s", "region", "dest_region", "next_region", "target", "realized",
                 "target_term", "homogeneity_term"),
            )
            # a row: target, envelope and realized flow of one ordered boundary over
            # one macro step
            self._flows = open_csv(
                "flows.csv",
                ("t_index", "time_s", "from_region", "to_region", "active", "target",
                 "m_min", "m_max", "realized", "fallback_steps"),
            )
            self.close = files.pop_all().close  # keep the files open past the with

    def observation(self, obs: MicroObservation, throughput_cum: int) -> None:
        row = (
            [obs.step, obs.time_s]
            + [obs.accumulation[r] for r in self._regions]
            + [obs.boundary_crossings[(i, h)] for i, h in self._boundaries]
            + [obs.queue_total(), obs.entry_queue, obs.in_network, obs.completed, throughput_cum]
        )
        self._obs.writerow(_cells(row))

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
                    [ctx.t_index, ctx.time_s, sol.z, sol.residual, sol.feasible]
                    + [sol.b.get(key, 1.0) for key in self._boundaries]
                    + [sol.m.get(key, 0.0) for key in self._boundaries]
                )
            )
        self._boundary.writerows(
            _cells(getattr(d, name) for name in self._decision_fields) for d in rec.decisions
        )
        for time_s, probs in rec.routing:
            # the realized splits, then the target and homogeneity terms
            splits, *terms = routectl.explain_routes(probs, self._beta)
            self._routing.writerows(
                _cells((time_s, i, j, h, sol.c.get((i, h, j), 0.0), value, *terms))
                for (i, h, j), value in sorted(splits.items())
            )
        fallbacks = Counter(d.boundary for d in rec.decisions if d.fallback)
        for i, h in self._boundaries:
            m_min, m_max = rec.envelopes.get((i, h), (0.0, 0.0))
            target, flow = rec.targets.get((i, h), 0.0), realized.get((i, h), 0.0)
            fallback_steps = fallbacks["|".join(boundary_key(i, h))]
            row = (ctx.t_index, end_s, i, h, ctx.active, target, m_min, m_max, flow, fallback_steps)
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
    strategy = make_strategy(config.strategy, scenario, model, sim)

    warmup_s = config.warmup_s if config.warmup_s is not None else scenario.demand.warmup_s
    horizon = scenario.demand.horizon_s
    cap_s = config.time_cap_s(scenario)

    logs = None
    if config.out_dir is not None:
        out_dir = Path(config.out_dir)
        logs = _RunLogs(out_dir, scenario, config, warmup_s, cap_s)
    try:
        obs = sim.initial_observation()
        ttt = 0.0
        first_activation_s: float | None = None
        throughput_series: list[tuple[float, int]] = []

        def after_step(o: MicroObservation) -> None:
            nonlocal ttt
            ttt += (o.in_network + o.entry_queue) * dt
            if logs:
                logs.observation(o, sim.completed_total)

        warmup_steps = int(round(warmup_s / dt))
        for _ in range(warmup_steps):
            sim.inject_demand()
            obs = sim.advance({})
            after_step(obs)

        prev_admitted: dict[tuple[str, str], float] = {}
        realized_prev: dict[tuple[str, str], float] = {}
        t_index = 0
        cleared_at: float | None = None

        while True:
            state = _build_macro_state(scenario, sim.od_counts(), prev_admitted)
            active = any(
                state.accumulation(r) > control.activation_threshold * strategy.model.critical(r)
                for r in scenario.partition.regions
            )
            if active and first_activation_s is None:
                first_activation_s = sim.time_s

            ctx = MacroContext(
                t_index=t_index,
                time_s=sim.time_s,
                state=state,
                obs=obs,
                active=active,
                realized_prev=realized_prev,
            )
            strategy.begin_macro(ctx)

            window_admitted: dict[tuple[str, str], float] = {}
            window_crossed: dict[tuple[str, str], float] = {}
            for _ in range(u):
                sim.inject_demand()
                if active:
                    plans = strategy.plans(obs)
                    assignments = strategy.routes(obs)
                    if assignments:
                        for vid in sorted(assignments):
                            sim.set_route(vid, assignments[vid])
                    obs = sim.advance(plans)
                    strategy.record(obs)
                else:
                    obs = sim.advance({})
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
            throughput_series.append((sim.time_s, sim.completed_total))

            prev_admitted = window_admitted
            t_index += 1
            if cleared_at is not None:
                break
            if sim.time_s >= cap_s:
                logger.warning(
                    "%s seed %d: hit time cap %.0fs before clearance",
                    config.strategy,
                    config.seed,
                    cap_s,
                )
                break

        metrics = RunMetrics(
            strategy=config.strategy,
            seed=config.seed,
            total_travel_time_veh_s=ttt,
            throughput_veh=sim.completed_total,
            injected_veh=sim.created_total,
            clearance_time_s=cleared_at if cleared_at is not None else sim.time_s,
            truncated=cleared_at is None,
            first_activation_s=first_activation_s,
            throughput_series=throughput_series,
        )
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
    per aggregation window and fits the per-region cubics.  Raises
    MfdFitError for a demand level that is not finite and > 0, for a window
    that is not a positive whole number of micro steps, and when the samples
    cannot be fitted, and ScenarioError, before the sweep, for a level that
    expects too many vehicles (``mesosim.check_demand_scale``)."""
    if not all(0 < level < math.inf for level in levels):
        raise MfdFitError(f"calibration levels must be > 0 and finite, got {list(levels)}")
    for level in levels:
        check_demand_scale(scenario, level)
    if len(levels) < 2:
        logger.warning("calibration with %d demand level(s): narrow accumulation range", len(levels))
    control = scenario.control
    dt = control.t_micro_s
    window_steps = int(round(window_s / dt)) if math.isfinite(window_s) else 0
    if window_steps < 1 or abs(window_s - window_steps * dt) > 1e-9:
        raise MfdFitError(f"calibration window {window_s} s must be a positive multiple of {dt} s")
    cap_s = control.cap_factor * scenario.demand.horizon_s
    regions = scenario.partition.regions
    samples: list[MfdSample] = []
    for li, level in enumerate(sorted(levels)):
        sim = Simulator(scenario, seed=seed + li, demand_scale=level)
        acc_sum = {r: 0.0 for r in regions}
        flow = {r: 0.0 for r in regions}
        steps_in_window = 0
        while True:
            sim.inject_demand()
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
            sub = None if out_dir is None else Path(out_dir) / f"{strategy}_seed{seed}"
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
        w.writerows(_cells(getattr(m, f.name) for f in _METRIC_COLUMNS) for m in runs)


def read_metrics_csv(path) -> list[RunMetrics]:
    """Runs written to ``metrics.csv`` or ``comparison.csv``, without series.
    Raises ValueError, naming the file, when it cannot be read, lacks a
    column, holds a cell that does not parse or holds no run."""
    parse = {
        "str": str,
        "int": int,
        "float": float,
        "bool": lambda cell: bool(int(cell)),
        "float | None": lambda cell: float(cell) if cell else None,
    }
    runs = []
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [f.name for f in _METRIC_COLUMNS if f.name not in header]
            if missing:
                raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
            for row in reader:
                if None in row.values():
                    raise ValueError(f"{path}, line {reader.line_num}: too few cells")
                values = {}
                for f in _METRIC_COLUMNS:
                    cell = row[f.name]
                    try:
                        values[f.name] = parse[f.type](cell)
                    except ValueError:
                        raise ValueError(
                            f"{path}, line {reader.line_num}: bad {f.name} cell {cell!r}"
                        ) from None
                runs.append(RunMetrics(**values))
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    if not runs:
        raise ValueError(f"{path}: no runs")
    return runs


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
        names = [f.name for f in fields(SummaryRow)]
        w.writerow(names)
        w.writerows(_cells(getattr(r, name) for name in names) for r in rows)

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
            series = [m.throughput_series for m in by_strategy[strategy]]
            # a run that cleared early holds its final count
            for idx, (time_s, _) in enumerate(max(series, key=len)):
                arr = np.array([s[min(idx, len(s) - 1)][1] for s in series], dtype=float)
                w.writerow(_cells([strategy, time_s, arr.mean(), arr.std()]))
    return rows
