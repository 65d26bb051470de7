"""Regenerate ``tests/goldens.json``, every result that ``test_runner.py``
pins, and print what moved.

    python tests/regen_goldens.py

Each pinned run is made anew, with the package under ``src/``.  The script
prints every run's total travel time, clearance time and whether it hit its
time cap, before (as the table holds them) and after (as this checkout
makes them), then each entry of the table that changed, old and new, and
writes the new table.  Without a change to the code every line reads
"same" and the file is rewritten byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from msjc import fixtures, routectl, runner  # noqa: E402

TABLE = Path(__file__).with_name("goldens.json")
# the run behind test_results_do_not_depend_on_blas_threads
GRID6_MSJC_CAPPED = "grid6 msjc seed 0 cap 1300"
# the grid6 msjc window whose route-choice counters
# test_perfbench_hooks.py checks against perfbench's
GRID6_MSJC_WINDOW = runner.RunConfig("msjc", seed=0, warmup_s=800.0, cap_s=900.0)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def headline(m: runner.RunMetrics) -> list:
    return [
        m.total_travel_time_veh_s,
        m.throughput_veh,
        m.injected_veh,
        m.clearance_time_s,
        m.truncated,
    ]


def boundary_rows(out_dir: Path) -> list[dict]:
    with open(out_dir / "boundary.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def decision_counts(out_dir: Path) -> list[int]:
    rows = boundary_rows(out_dir)
    return [
        len(rows),
        sum(r["fallback"] == "1" for r in rows),
        sum(int(r["feasible_count"]) for r in rows),
    ]


def route_counters() -> dict:
    """On GRID6_MSJC_WINDOW: the route-choice solves, their BVLS iterations
    and the vehicles handed to route generation, counted by wrapping the
    two ``routectl`` functions for the one run."""
    counts = {"solves": 0, "iterations": 0, "vehicles": 0}
    solve, generate = routectl.solve_probabilities, routectl.generate_routes

    def counted_solve(*args):
        out = solve(*args)
        counts["solves"] += 1
        counts["iterations"] += out.iterations
        return out

    def counted_generate(*args):
        counts["vehicles"] += len(args[0])
        return generate(*args)

    routectl.solve_probabilities, routectl.generate_routes = counted_solve, counted_generate
    try:
        runner.run(fixtures.grid6(), GRID6_MSJC_WINDOW)
    finally:
        routectl.solve_probabilities, routectl.generate_routes = solve, generate
    return counts


def regenerate(tmp: Path) -> dict:
    strategies = tuple(runner.STRATEGIES)
    table: dict = {"HEADLINES": {}}
    heads = table["HEADLINES"]

    # corridor2, every strategy, seeds 0-1: the compare directory also holds
    # each run's own logs
    compare_dir = tmp / "corridor2"
    for m in runner.compare(fixtures.corridor2(), strategies, (0, 1), out_dir=compare_dir):
        heads[f"corridor2 {m.strategy} seed {m.seed}"] = headline(m)
    table["CORRIDOR2_COMPARE_FILES"] = {
        name: digest(compare_dir / name)
        for name in ("comparison.csv", "summary.csv", "throughput_series.csv")
    }

    grid6 = {}
    for strategy in strategies:
        out = grid6[strategy] = tmp / f"grid6_{strategy}"
        m = runner.run(fixtures.grid6(), runner.RunConfig(strategy, seed=0, out_dir=out))
        heads[f"grid6 {strategy} seed 0"] = headline(m)
    table["GRID6_STEP_LOGS"] = {
        s: {name: digest(grid6[s] / name) for name in ("observations.csv", "flows.csv")}
        for s in strategies
    }
    table["GRID6_MSJC_LOGS"] = {
        name: digest(grid6["msjc"] / name)
        for name in ("joint.csv", "routing.csv", "metrics.csv", "manifest.json")
    }
    table["GRID6_BOUNDARY_LOGS"] = {
        s: digest(grid6[s] / "boundary.csv") for s in ("msjc", "mspc-lr", "mspc")
    }
    table["BOUNDARY_DECISIONS"] = {
        "grid6 mspc": decision_counts(grid6["mspc"]),
        "corridor2 msjc": decision_counts(compare_dir / "msjc_seed0"),
        "corridor2 mspc": decision_counts(compare_dir / "mspc_seed0"),
    }
    table["GRID6_MSPC_PLANS"] = dict(Counter(r["plan"] for r in boundary_rows(grid6["mspc"])))

    m = runner.run(fixtures.grid6(), runner.RunConfig("msjc", seed=0, cap_s=1300.0))
    heads[GRID6_MSJC_CAPPED] = headline(m)
    table["GRID6_MSJC_ROUTE_COUNTERS"] = route_counters()

    model = runner.calibrate(fixtures.grid6(), seed=0)
    table["GRID6_CALIBRATED"] = {
        region: [p.b1, p.b2, p.b3, p.n_crit, p.n_max_fit] for region, p in model.params.items()
    }
    return table


def entries(table: dict, prefix: str = ""):
    """Every leaf of the table as (dotted key, value); a list is a leaf."""
    for key, value in table.items():
        if isinstance(value, dict):
            yield from entries(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def main() -> None:
    before = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        after = regenerate(Path(tmp))

    def summary(head) -> str:
        if head is None:
            return "not pinned"
        ttt, _, _, clearance, capped = head
        capped = "yes" if capped else "no"
        return f"TTT {ttt:,.0f} veh.s, clearance {clearance:g} s, capped {capped}"

    print("pinned runs (before -> after):")
    for run, head in after["HEADLINES"].items():
        old = before.get("HEADLINES", {}).get(run)
        moved = "(same)" if old == head else f"(was {summary(old)})"
        print(f"  {run}: {summary(head)} {moved}")
    old_entries = dict(entries(before))
    changed = [(k, old_entries.get(k), v) for k, v in entries(after) if old_entries.get(k) != v]
    changed += [(k, v, None) for k, v in old_entries.items() if k not in dict(entries(after))]
    print(f"table entries changed: {len(changed)}")
    for key, old, new in changed:
        print(f"  {key}: {old} -> {new}")
    text = json.dumps(after, indent=2)
    # one line per list: a headline, decision counts or fitted parameters
    text = re.sub(r"\[[^\[\]{}]*\]", lambda m: json.dumps(json.loads(m[0])), text)
    TABLE.write_text(text + "\n")


if __name__ == "__main__":
    main()
