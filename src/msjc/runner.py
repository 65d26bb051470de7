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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from . import jointctl, mfd as mfdmod, routectl
from .baselines import PiController, bp_control, logit_choice, pi_target, route_travel_time
from .boundaryctl import BoundaryController
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
class BoundaryMacroRecord:
    t_index: int
    time_s: float
    direction: tuple[str, str]
    target: float
    m_min: float
    m_max: float
    realized: float
    fallback_steps: int
    active: bool


@dataclass
class RunMetrics:
    strategy: str
    seed: int
    total_travel_time_veh_s: float
    throughput_veh: int
    injected_veh: int
    clearance_time_s: float
    truncated: bool
    first_activation_s: float | None
    accumulation_series: list[tuple[float, dict[str, int]]] = field(repr=False, default_factory=list)
    throughput_series: list[tuple[float, int]] = field(repr=False, default_factory=list)
    boundary_records: list[BoundaryMacroRecord] = field(repr=False, default_factory=list)


@dataclass
class MacroContext:
    t_index: int
    time_s: float
    state: MacroState
    obs: MicroObservation
    active: bool
    realized_prev: dict[tuple[str, str], float]
    travel_times: dict[str, float]


def _require_mfd(scenario: Scenario, model: MfdModel | None) -> MfdModel:
    if model is not None:
        return model
    if scenario.mfd is not None:
        return MfdModel(scenario.mfd)
    raise ValueError(
        "no calibrated MFD: embed an 'mfd' block in the scenario or run calibrate"
    )


# ---------------------------------------------------------------------------
# Strategies (identical controller interface: macro hook + micro hooks)


class DefaultStrategy:
    """Fixed-cycle round robin, no routing; used for calibration sweeps."""

    def begin_macro(self, ctx: MacroContext) -> None:
        pass

    def plans(self, obs: MicroObservation) -> dict[tuple[str, str], str]:
        return {}

    def routes(self, obs: MicroObservation) -> dict[int, tuple[str, ...]] | None:
        return None

    def record(self, obs: MicroObservation) -> None:
        pass

    def joint_row(self):
        return None

    def boundary_rows(self):
        return []

    def routing_rows(self):
        return []

    def envelopes(self) -> dict[tuple[str, str], tuple[float, float]]:
        return {}

    def targets(self) -> dict[tuple[str, str], float]:
        return {}

    def fallback_steps(self) -> dict[tuple[str, str], int]:
        return {}


class _TrackedStrategy(DefaultStrategy):
    """Shared plumbing for strategies that realize macro flow targets
    through the boundary flow-tracking controller."""

    def __init__(self, scenario: Scenario, model: MfdModel, sim: Simulator):
        self.scenario = scenario
        self.net = scenario.network
        self.model = model
        self.sim = sim
        control = scenario.control
        self.controllers = {
            key: BoundaryController(
                self.net,
                key,
                u=control.steps_per_macro,
                sigma=control.sigma,
                sigma_abs=control.sigma_abs_veh_s,
                t_micro_s=control.t_micro_s,
            )
            for key in scenario.partition.boundary_keys()
        }
        self.active = False
        self._targets: dict[tuple[str, str], float] = {}
        self._envelopes: dict[tuple[str, str], tuple[float, float]] = {}
        self._fallbacks: dict[tuple[str, str], int] = {}
        self._boundary_rows: list[dict] = []

    def _begin_boundaries(self, ctx: MacroContext) -> None:
        self._fallbacks = {key: 0 for key in self.controllers}
        self._boundary_rows = []
        self._envelopes = {}
        for key, bc in self.controllers.items():
            (f_lo, f_hi), (r_lo, r_hi) = bc.macro_flow_bounds(ctx.obs)
            i, h = key
            self._envelopes[(i, h)] = (f_lo, f_hi)
            self._envelopes[(h, i)] = (r_lo, r_hi)

    def plans(self, obs: MicroObservation) -> dict[tuple[str, str], str]:
        if not self.active:
            return {}
        out = {}
        for key, bc in self.controllers.items():
            out[key] = bc.control_step(obs)
            d = bc.last_decision
            if d.fallback:
                self._fallbacks[key] += 1
            self._boundary_rows.append(
                {
                    "time_s": obs.time_s,
                    "boundary": f"{key[0]}|{key[1]}",
                    "k": d.k,
                    "plan": d.plan_id,
                    "fallback": int(d.fallback),
                    "feasible_count": d.feasible_count,
                    "m_expected_fwd": d.m_expected_fwd,
                    "m_expected_rev": d.m_expected_rev,
                    "est_fwd": d.est_fwd,
                    "est_rev": d.est_rev,
                    "ng_fwd": d.ng_fwd,
                    "ng_rev": d.ng_rev,
                }
            )
        return out

    def record(self, obs: MicroObservation) -> None:
        if not self.active:
            return
        for bc in self.controllers.values():
            bc.record_realized(obs)
        if self._boundary_rows:
            for key, bc in self.controllers.items():
                row = next(
                    r
                    for r in reversed(self._boundary_rows)
                    if r["boundary"] == f"{key[0]}|{key[1]}"
                )
                i, h = key
                row["realized_fwd"] = obs.boundary_crossings.get((i, h), 0.0)
                row["realized_rev"] = obs.boundary_crossings.get((h, i), 0.0)

    def boundary_rows(self):
        rows, self._boundary_rows = self._boundary_rows, []
        return rows

    def envelopes(self):
        return self._envelopes

    def targets(self):
        return self._targets

    def fallback_steps(self):
        return self._fallbacks


class MsjcStrategy(_TrackedStrategy):
    """Joint gating/routing optimization on top of the tracking controller."""

    def __init__(self, scenario: Scenario, model: MfdModel, sim: Simulator):
        super().__init__(scenario, model, sim)
        self.solution: ControlSolution | None = None
        self._joint_row = None
        self._routing_rows: list[dict] = []

    def begin_macro(self, ctx: MacroContext) -> None:
        self.active = ctx.active
        self.solution = None
        self._joint_row = None
        if not ctx.active:
            return
        self._begin_boundaries(ctx)

        route_set = routectl.generate_routes(
            ctx.obs.vehicles, self.net, ctx.travel_times, self.scenario.control.t_micro_s
        )
        candidates = routectl.candidate_next_regions(route_set)
        c_min, c_max = jointctl.route_bounds(candidates, self.scenario.partition.adjacency)
        for (i, j) in list(ctx.state.n):
            if i == j:
                continue
            for h in self.scenario.partition.adjacency[i]:
                c_min.setdefault((i, h, j), 0.0)
                c_max.setdefault((i, h, j), 1.0)
        bounds = ControlBounds(
            m_min={k: v[0] for k, v in self._envelopes.items()},
            m_max={k: v[1] for k, v in self._envelopes.items()},
            c_min=c_min,
            c_max=c_max,
        )
        self.solution = jointctl.solve(ctx.state, self.model, bounds)
        self._targets = dict(self.solution.m)
        for key, bc in self.controllers.items():
            i, h = key
            bc.begin_macro(
                self._targets.get((i, h), 0.0), self._targets.get((h, i), 0.0)
            )
        self._joint_row = {
            "t_index": ctx.t_index,
            "time_s": ctx.time_s,
            "z": self.solution.z,
            "residual": self.solution.residual,
            "feasible": int(self.solution.feasible),
            "start_index": self.solution.start_index,
            "b": dict(self.solution.b),
            "m": dict(self.solution.m),
        }

    def routes(self, obs: MicroObservation) -> dict[int, tuple[str, ...]] | None:
        if not self.active or self.solution is None:
            return None
        route_set = routectl.generate_routes(
            obs.vehicles,
            self.net,
            self.sim.travel_time_estimates(),
            self.scenario.control.t_micro_s,
        )
        assignments: dict[int, tuple[str, ...]] = {}
        for region in self.scenario.partition.regions:
            in_region = [vr for vr in route_set if vr.region == region]
            if not in_region:
                continue
            probs = routectl.solve_probabilities(
                in_region,
                self.solution.c,
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
                self._routing_rows.append(
                    {
                        "time_s": obs.time_s,
                        "region": region,
                        "dest_region": j,
                        "next_region": h,
                        "target": self.solution.c.get((i, h, j), 0.0),
                        "realized": realized,
                        "target_term": probs.target_term,
                        "homogeneity_term": probs.homogeneity_term,
                    }
                )
        return assignments

    def joint_row(self):
        row, self._joint_row = self._joint_row, None
        return row

    def routing_rows(self):
        rows, self._routing_rows = self._routing_rows, []
        return rows


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
                boundary=(i, h),
                kp=control.pi_kp,
                ki=control.pi_ki,
                setpoint=model.critical(h),
            )
            for i, h in scenario.partition.ordered_boundaries()
        }
        self._routing_rows: list[dict] = []

    def begin_macro(self, ctx: MacroContext) -> None:
        self.active = ctx.active
        if not ctx.active:
            for pi in self.pi.values():
                pi.deactivate()
            return
        self._begin_boundaries(ctx)
        self._targets = {}
        for (i, h), pi in sorted(self.pi.items()):
            n_h = ctx.state.accumulation(h)
            if not pi.active:
                pi.reset(ctx.realized_prev.get((i, h), 0.0), n_h)
            lo, hi = self._envelopes[(i, h)]
            self._targets[(i, h)] = pi_target(pi, n_h, lo, hi)
        for key, bc in self.controllers.items():
            i, h = key
            bc.begin_macro(self._targets[(i, h)], self._targets[(h, i)])

    def routes(self, obs: MicroObservation) -> dict[int, tuple[str, ...]] | None:
        if not self.active or not self.routing:
            return None
        return _logit_routes(self, obs)

    def routing_rows(self):
        rows, self._routing_rows = self._routing_rows, []
        return rows


class BpStrategy(DefaultStrategy):
    """Pure backpressure at boundary intersections, optional logit routing."""

    def __init__(self, scenario: Scenario, sim: Simulator, routing: bool):
        self.scenario = scenario
        self.net = scenario.network
        self.sim = sim
        self.routing = routing
        self.active = False
        self._routing_rows: list[dict] = []

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
        return _logit_routes(self, obs)

    def routing_rows(self):
        rows, self._routing_rows = self._routing_rows, []
        return rows


def _logit_routes(strategy, obs: MicroObservation) -> dict[int, tuple[str, ...]]:
    scenario: Scenario = strategy.scenario
    tt = strategy.sim.travel_time_estimates()
    route_set = routectl.generate_routes(
        obs.vehicles, strategy.net, tt, scenario.control.t_micro_s
    )
    assignments: dict[int, tuple[str, ...]] = {}
    for vr in sorted(route_set, key=lambda r: r.vid):
        if vr.pinned or len(vr.routes) == 1:
            continue
        times = [route_travel_time(r.links, tt) for r in vr.routes]
        phi = logit_choice(times, scenario.control.logit_theta)
        idx = int(strategy.sim.routing_rng.choice(len(phi), p=phi))
        if not vr.routes[idx].is_current:
            assignments[vr.vid] = vr.routes[idx].links
    return assignments


def make_strategy(
    name: str, scenario: Scenario, model: MfdModel | None, sim: Simulator
):
    if name == "default":
        return DefaultStrategy()
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


def _expected_demand(
    scenario: Scenario, scale: float, t0: float, t1: float, dt: float
) -> dict[tuple[str, str], float]:
    out: dict[tuple[str, str], float] = {}
    net = scenario.network
    steps = int(round((t1 - t0) / dt))
    for flow in scenario.demand.od:
        key = (net.link_region(flow.origin), net.link_region(flow.destination))
        total = 0.0
        for k in range(steps):
            t = t0 + k * dt
            if t < scenario.demand.horizon_s:
                total += flow.rate_at(t) * scale * dt
        out[key] = out.get(key, 0.0) + total
    return out


def _build_macro_state(
    scenario: Scenario, obs: MicroObservation, t_index: int, q: Mapping
) -> MacroState:
    n = {}
    for i in scenario.partition.regions:
        for j in scenario.partition.regions:
            n[(i, j)] = float(obs.od_counts.get((i, j), 0))
    return MacroState(
        t=t_index,
        n=n,
        q=dict(q),
        t_macro_s=scenario.control.t_macro_s,
        regions=scenario.partition.regions,
        adjacency=scenario.partition.adjacency,
    )


class _RunLogs:
    """Streaming CSV writers with stable schemas across strategies."""

    def __init__(self, out_dir: Path, scenario: Scenario):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = out_dir
        regions = scenario.partition.regions
        boundaries = scenario.partition.ordered_boundaries()
        self._obs_fh = open(out_dir / "observations.csv", "w", newline="")
        self._obs = csv.writer(self._obs_fh)
        self._obs.writerow(
            ["step", "time_s"]
            + [f"N_{r}" for r in regions]
            + [f"m_{i}_{h}" for i, h in boundaries]
            + ["queue_total", "entry_queue", "in_network", "completed", "throughput_cum"]
        )
        self._regions = regions
        self._boundaries = boundaries

        self._joint_fh = open(out_dir / "joint.csv", "w", newline="")
        self._joint = csv.writer(self._joint_fh)
        self._joint.writerow(
            ["t_index", "time_s", "z", "residual", "feasible", "start_index"]
            + [f"b_{i}_{h}" for i, h in boundaries]
            + [f"M_{i}_{h}" for i, h in boundaries]
        )

        self._bound_fh = open(out_dir / "boundary.csv", "w", newline="")
        self._bound = csv.writer(self._bound_fh)
        self._bound.writerow(
            [
                "time_s", "boundary", "k", "plan", "fallback", "feasible_count",
                "m_expected_fwd", "m_expected_rev", "est_fwd", "est_rev",
                "ng_fwd", "ng_rev", "realized_fwd", "realized_rev",
            ]
        )

        self._route_fh = open(out_dir / "routing.csv", "w", newline="")
        self._route = csv.writer(self._route_fh)
        self._route.writerow(
            [
                "time_s", "region", "dest_region", "next_region",
                "target", "realized", "target_term", "homogeneity_term",
            ]
        )

        self._flows_fh = open(out_dir / "flows.csv", "w", newline="")
        self._flows = csv.writer(self._flows_fh)
        self._flows.writerow(
            [
                "t_index", "time_s", "from_region", "to_region", "active",
                "target", "m_min", "m_max", "realized", "fallback_steps",
            ]
        )

    def observation(self, obs: MicroObservation, throughput_cum: int) -> None:
        self._obs.writerow(
            [obs.step, _fmt(obs.time_s)]
            + [obs.accumulation[r] for r in self._regions]
            + [_fmt(obs.boundary_crossings[(i, h)]) for i, h in self._boundaries]
            + [obs.queue_total(), obs.entry_queue, obs.in_network, obs.completed, throughput_cum]
        )

    def joint(self, row: dict | None) -> None:
        if row is None:
            return
        self._joint.writerow(
            [row["t_index"], _fmt(row["time_s"]), _fmt(row["z"]), _fmt(row["residual"]),
             row["feasible"], row["start_index"]]
            + [_fmt(row["b"].get((i, h), 1.0)) for i, h in self._boundaries]
            + [_fmt(row["m"].get((i, h), 0.0)) for i, h in self._boundaries]
        )

    def boundary(self, rows) -> None:
        for r in rows:
            self._bound.writerow(
                [
                    _fmt(r["time_s"]), r["boundary"], r["k"], r["plan"], r["fallback"],
                    r["feasible_count"], _fmt(r["m_expected_fwd"]), _fmt(r["m_expected_rev"]),
                    _fmt(r["est_fwd"]), _fmt(r["est_rev"]), _fmt(r["ng_fwd"]), _fmt(r["ng_rev"]),
                    _fmt(r.get("realized_fwd", 0.0)), _fmt(r.get("realized_rev", 0.0)),
                ]
            )

    def routing(self, rows) -> None:
        for r in rows:
            self._route.writerow(
                [
                    _fmt(r["time_s"]), r["region"], r["dest_region"], r["next_region"],
                    _fmt(r["target"]), _fmt(r["realized"]),
                    _fmt(r["target_term"]), _fmt(r["homogeneity_term"]),
                ]
            )

    def flows(self, records: list[BoundaryMacroRecord]) -> None:
        for r in records:
            self._flows.writerow(
                [
                    r.t_index, _fmt(r.time_s), r.direction[0], r.direction[1],
                    int(r.active), _fmt(r.target), _fmt(r.m_min), _fmt(r.m_max),
                    _fmt(r.realized), r.fallback_steps,
                ]
            )

    def close(self) -> None:
        for fh in (self._obs_fh, self._joint_fh, self._bound_fh, self._route_fh, self._flows_fh):
            fh.close()


def _fmt(x: float) -> str:
    return repr(float(x))


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
    needs_mfd = config.strategy != "default"
    crit = _require_mfd(scenario, model) if needs_mfd else None

    warmup_s = config.warmup_s if config.warmup_s is not None else scenario.demand.warmup_s
    horizon = scenario.demand.horizon_s
    cap_s = config.cap_s if config.cap_s is not None else control.cap_factor * horizon

    logs = None
    if config.out_dir is not None:
        out_dir = Path(config.out_dir)
        logs = _RunLogs(out_dir, scenario)
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
        if control.demand_forecast == "known":
            q = _expected_demand(
                scenario, config.demand_scale, sim.time_s, sim.time_s + control.t_macro_s, dt
            )
        else:
            q = dict(prev_admitted)
        state = _build_macro_state(scenario, obs, t_index, q)
        active = False
        if crit is not None:
            active = any(
                state.accumulation(r) > control.activation_threshold * crit.critical(r)
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
            travel_times=sim.travel_time_estimates(),
        )
        strategy.begin_macro(ctx)
        if logs:
            logs.joint(strategy.joint_row())

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
        if logs:
            logs.boundary(strategy.boundary_rows())
            logs.routing(strategy.routing_rows())

        if sim.created_total != sim.completed_total + obs.in_network + obs.entry_queue:
            raise RuntimeError(
                f"vehicle conservation broken at t={sim.time_s:.0f}s: "
                f"created {sim.created_total} != completed {sim.completed_total}"
                f" + in network {obs.in_network} + entry queue {obs.entry_queue}"
            )

        realized_prev = {
            key: total / control.t_macro_s for key, total in window_crossed.items()
        }
        envelopes = strategy.envelopes()
        targets = strategy.targets()
        fallbacks = strategy.fallback_steps()
        records = []
        for i, h in scenario.partition.ordered_boundaries():
            env = envelopes.get((i, h))
            records.append(
                BoundaryMacroRecord(
                    t_index=t_index,
                    time_s=sim.time_s,
                    direction=(i, h),
                    target=targets.get((i, h), 0.0),
                    m_min=env[0] if env else 0.0,
                    m_max=env[1] if env else 0.0,
                    realized=realized_prev.get((i, h), 0.0),
                    fallback_steps=fallbacks.get(boundary_key(i, h), 0),
                    active=active,
                )
            )
        metrics.boundary_records.extend(records)
        if logs:
            logs.flows(records)
        metrics.accumulation_series.append((sim.time_s, dict(obs.accumulation)))
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
        _write_metrics_csv(Path(config.out_dir) / "metrics.csv", [metrics])
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
    window_index = 0
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
                if control.completion_proxy == "outflow":
                    flow[r] += outflow
                else:
                    flow[r] += outflow + internal
            steps_in_window += 1
            if steps_in_window == window_steps:
                for r in regions:
                    samples.append(
                        MfdSample(
                            region=r,
                            accumulation_veh=acc_sum[r] / window_steps,
                            completion_veh_s=flow[r] / window_s,
                            window=window_index,
                        )
                    )
                window_index += 1
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
        w.writerow(
            [
                "strategy", "seed", "total_travel_time_veh_s", "throughput_veh",
                "injected_veh", "clearance_time_s", "truncated", "first_activation_s",
            ]
        )
        for m in runs:
            w.writerow(
                [
                    m.strategy, m.seed, _fmt(m.total_travel_time_veh_s), m.throughput_veh,
                    m.injected_veh, _fmt(m.clearance_time_s), int(m.truncated),
                    "" if m.first_activation_s is None else _fmt(m.first_activation_s),
                ]
            )


def summarize(runs: list[RunMetrics]) -> list[dict]:
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
            {
                "strategy": strategy,
                "runs": len(ms),
                "mean_total_travel_time_veh_s": float(ttt.mean()),
                "std_total_travel_time_veh_s": float(ttt.std()),
                "mean_throughput_veh": float(thr.mean()),
                "std_throughput_veh": float(thr.std()),
                "truncated_runs": sum(m.truncated for m in ms),
            }
        )
    rows.sort(key=lambda r: r["mean_total_travel_time_veh_s"])
    return rows


def report(runs: list[RunMetrics], out_dir: str | Path) -> list[dict]:
    """Comparison table plus plot-ready series with replication spread."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_metrics_csv(out / "comparison.csv", runs)

    rows = summarize(runs)
    with open(out / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "strategy", "runs", "mean_total_travel_time_veh_s",
                "std_total_travel_time_veh_s", "mean_throughput_veh",
                "std_throughput_veh", "truncated_runs",
            ]
        )
        for r in rows:
            w.writerow(
                [
                    r["strategy"], r["runs"], _fmt(r["mean_total_travel_time_veh_s"]),
                    _fmt(r["std_total_travel_time_veh_s"]), _fmt(r["mean_throughput_veh"]),
                    _fmt(r["std_throughput_veh"]), r["truncated_runs"],
                ]
            )

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
