"""Benchmark entry point: one workload, one seed, tracing on or off.

    python3 perfbench/run.py --workload grid6-msjc --seed 0 --seconds 30 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` and
the metric names, units and bounds come from ``BENCHMARK.json``.  Human
readable lines go first, each starting with ``#``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``).  See ``perfbench/README.md`` for the workloads and what
each metric should move.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"


class _WarningCounter(logging.Handler):
    """Counts the package's warnings (time caps, infeasible joint programs)
    by message template, keeping the first of each, instead of printing one
    line per macro step."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.counts: dict[str, int] = {}
        self.first: dict[str, str] = {}

    def emit(self, record: logging.LogRecord) -> None:
        key = f"{record.name}: {record.msg}"
        self.counts[key] = self.counts.get(key, 0) + 1
        self.first.setdefault(key, f"{record.name}: {record.getMessage()}")


def _load_package():
    source = ROOT / "src"
    if not (source / "msjc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no msjc package under {source}")
    # one BLAS thread: the solves are small, and more threads both change
    # msjc's floating-point results and stall when another process holds a core
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(source))
    import msjc

    if Path(msjc.__file__).resolve().parent != (source / "msjc").resolve():
        raise SystemExit(f"perfbench: imported msjc from {msjc.__file__}, not {source}")


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"perfbench: missing {path}")
    return json.loads(path.read_text())


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "n/a"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "n/a"


def _environment() -> str:
    import numpy
    import scipy

    return (
        f"python {platform.python_version()} numpy {numpy.__version__} scipy {scipy.__version__}"
        f" nproc {os.cpu_count()} blas_threads {os.environ['OPENBLAS_NUM_THREADS']}"
        f" commit {_git_commit()}"
    )


def _untraced(w, workload: str, seed: int, seconds: float) -> tuple[dict, list[str], list, list]:
    """End-to-end metrics from whole passes with the light hooks only.

    Set-up repeats run between passes, and the first pass runs again at the
    end to check determinism.  Every time is rescaled by the machine's
    speed, sampled between steps (``speed``).  An item's wall time is the sum
    of its simulator steps.  Items differ in size, so a pass's figures are
    sums over item positions of each position's trimmed mean across passes:
    an unusually hard seed, or a run that gridlocks, is trimmed away.
    """
    from speed import NOMINAL_S, SpeedProbe

    n_pass = w.passes_for(workload, seconds)
    setup_each = -(-w.SETUP_REPEATS // n_pass)
    w.setup_once(workload)  # the first call pays for lazy imports and caches
    setups, passes = [], []
    probe = SpeedProbe()
    with w.Watch(probe) as watch:
        for p in range(n_pass):
            setups += w.setup_seconds(workload, setup_each, probe)
            passes.append(w.run_pass(workload, seed, p, watch).outcomes)
        again = w.run_pass(workload, seed, 0, watch).outcomes
    first = [o for items in passes for o in items]
    problems = [msg for o in first + again for msg in o.problems]
    problems += w.compare(passes[0], again, "determinism")
    columns = list(zip(*passes))  # columns[k]: item k of every pass

    def per_pass(value) -> float:
        """Sum over item positions of the position's trimmed mean across passes."""
        return sum(w.trimmed_mean([value(o) for o in col]) for col in columns)

    wall = per_pass(lambda o: sum(o.step_s))
    steps_ms = [s * 1e3 for o in first for s in o.loop_step_s]
    metrics = {
        "wall_s": (wall, len(first)),
        "setup_s": (w.median(setups), len(setups)),
        "sim_s_per_wall_s": (per_pass(lambda o: o.sim_s) / wall, len(first)),
        "step_ms.p50": (w.quantile(steps_ms, 0.5), len(steps_ms)),
        "ttt_veh_s": (per_pass(lambda o: o.ttt_veh_s), len(first)),
        "throughput_veh": (per_pass(lambda o: o.throughput_veh), len(first)),
    }
    probe_ms = [d * 1e3 for d in probe.durations]
    lines = [
        f"{n_pass} passes of {len(columns)} items, then the first pass again",
        f"speed probe {w.quantile(probe_ms, 0.1):.3f} / {w.median(probe_ms):.3f} / "
        f"{w.quantile(probe_ms, 0.9):.3f} ms (p10 / p50 / p90, n={len(probe_ms)}); "
        f"times are rescaled to a probe of {NOMINAL_S * 1e3:.3f} ms",
        f"step_ms.p95 {w.quantile(steps_ms, 0.95):.3f} ms (n={len(steps_ms)})",
    ]
    macro = [x for o in first for x in o.macro_ms]
    micro = [x for o in first for x in o.micro_ms]
    if macro:
        lines.append(f"macro_decision_ms.p50 {w.median(macro):.3f} ms (n={len(macro)})")
    if micro:
        lines.append(
            f"micro_decision_ms.p50 {w.quantile(micro, 0.5):.3f} ms, "
            f"micro_decision_ms.p90 {w.quantile(micro, 0.9):.3f} ms (n={len(micro)})"
        )
    lines += [_describe(o) for o in passes[0]]
    return metrics, problems, first, lines


def _traced(w, workload: str, seed: int, bound: float) -> tuple[dict, list[str], list, list]:
    """Per-layer metrics: the first pass untraced, then the same pass traced."""
    from layers import Tracer

    with w.Watch() as watch:
        plain = w.run_pass(workload, seed, 0, watch)
        with Tracer() as tracer:
            w.bind_layers(tracer)
            traced = w.run_pass(workload, seed, 0, watch)
    layers = tracer.layers
    problems = [msg for o in plain.outcomes + traced.outcomes for msg in o.problems]
    problems += w.compare(plain.outcomes, traced.outcomes, "traced vs untraced")
    problems += w.wrapper_check(workload, layers)
    coverage = w.self_time_total(layers) / traced.wall_s
    if abs(1.0 - coverage) > bound:
        problems.append(f"coverage: layer self times sum to {coverage:.4f} of the traced wall time")

    metrics = {name: (value, None) for name, value in w.layer_metrics(layers).items()}
    metrics["trace.overhead_ratio"] = (traced.wall_s / plain.wall_s, 1)
    metrics["trace.coverage_ratio"] = (coverage, 1)
    lines = [
        f"traced pass {traced.wall_s:.3f} s, untraced pass {plain.wall_s:.3f} s",
        f"coverage: self times {w.self_time_total(layers):.4f} s of {traced.wall_s:.4f} s traced wall",
    ]
    lines += [
        f"{name}: calls {layer.calls} busy {layer.busy_s:.4f} s self {layer.self_s:.4f} s"
        for name, layer in sorted(layers.items())
    ]
    return metrics, problems, traced.outcomes, lines


def _describe(o) -> str:
    from msjc import runner

    if isinstance(o.value, runner.RunMetrics):
        m = o.value
        cleared = "capped" if m.truncated else f"cleared at {m.clearance_time_s:.0f} s"
        return (
            f"{o.label}: TTT {m.total_travel_time_veh_s:.0f} veh*s, "
            f"throughput {m.throughput_veh}/{m.injected_veh} veh, {cleared}"
        )
    if o.value is not None:
        crit = ", ".join(f"{r} {p.n_crit:.1f}" for r, p in o.value.params.items())
        return f"{o.label}: N_crit {crit} veh over {o.units} levels, {o.failed} failed"
    return f"{o.label}: raised"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    spec = _spec()
    _load_package()
    import workloads as w

    if args.workload not in w.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(w.WORKLOADS)})")
    counter = _WarningCounter()
    package_log = logging.getLogger("msjc")
    package_log.addHandler(counter)
    package_log.propagate = False

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.trace:
        listed = spec["per_layer"]
        metrics, problems, outcomes, lines = _traced(w, args.workload, args.seed, bounds["wall_s"])
    else:
        listed = spec["end_to_end"]
        metrics, problems, outcomes, lines = _untraced(w, args.workload, args.seed, args.seconds)
    names = [m["name"] for m in listed]
    if sorted(names) != sorted(metrics):
        raise SystemExit(
            f"perfbench: metrics {sorted(set(metrics) ^ set(names))} differ from BENCHMARK.json"
        )

    attempted = sum(o.units for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(f"# perfbench {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# {_environment()}")
    for line in lines:
        print(f"# {line}")
    for m in listed:
        value, n = metrics[m["name"]]
        count = f" (n={n})" if n is not None else ""
        print(f"# {m['name']:<56} {value:>16.6f} {m['unit']}{count}")
    for key, count in sorted(counter.counts.items()):
        print(f"# warning x{count}, first: {counter.first[key]}")
    for o in outcomes:
        if o.failed:
            print(f"# failed: {_describe(o)}")
    print(f"# failed {failed} of {attempted} attempted")
    for msg in problems:
        for line in f"CHECK FAILED {msg}".splitlines():
            print(f"# {line}")
    print(f"# checks {'PASS' if not problems else 'FAIL'}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
