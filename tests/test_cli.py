import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
import yaml

from msjc import cli, fixtures, mfd, netmodel, runner
from test_runner import assert_grid6_calibrated


def test_report_keeps_the_throughput_series(tmp_path):
    scenario = tmp_path / "corridor2.yaml"
    out = tmp_path / "cmp"
    assert cli.main(["make-scenario", "corridor2", "-o", str(scenario)]) == 0
    assert cli.main(
        ["compare", "--scenario", str(scenario), "--strategies", "bp", "--out", str(out)]
    ) == 0
    series = (out / "throughput_series.csv").read_text()
    assert len(series.splitlines()) > 1
    assert cli.main(["report", "--out", str(out)]) == 0
    assert (out / "throughput_series.csv").read_text() == series


def _run(scenario, tmp_path):
    return cli.main(
        ["run", "--scenario", str(scenario), "--strategy", "bp", "--out", str(tmp_path / "run")]
    )


def test_yaml_parse_error_is_one_line_and_exit_2(tmp_path, capsys):
    scenario = tmp_path / "broken.yaml"
    scenario.write_text("regions: {R1: [unclosed\nlinks: {}\n")
    assert _run(scenario, tmp_path) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "YAML parse error" in err


def test_unknown_control_key_is_one_line_and_exit_2(tmp_path, capsys):
    scenario = tmp_path / "corridor2.yaml"
    assert cli.main(["make-scenario", "corridor2", "-o", str(scenario)]) == 0
    capsys.readouterr()
    raw = yaml.safe_load(scenario.read_text())
    raw["control"]["gating_gain"] = 1.0
    scenario.write_text(yaml.safe_dump(raw))
    assert _run(scenario, tmp_path) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "gating_gain" in err


# Keys removed from the scenario format, band widths that would divide by
# zero in the boundary controller, a wrongly typed number and container, a
# plan naming a phase its intersection lacks, and plans for a region and
# itself.
@pytest.mark.parametrize(
    "where, key, value",
    [
        (lambda raw: raw["control"], "completion_proxy", "outflow"),
        (lambda raw: raw["control"], "demand_forecast", "known"),
        (lambda raw: raw["intersections"]["ng"], "service_rate_veh_s", 0.3),
        (lambda raw: raw["control"], "sigma", 0.0),
        (lambda raw: raw["control"], "sigma_abs_veh_s", 0.0),
        (lambda raw: raw["links"]["src1"], "length_m", "abc"),
        (lambda raw: raw, "meta", "corridor two"),
        (lambda raw: raw, "regions", ["R1", "R2"]),
        (lambda raw: raw["plans"]["R1|R2"][0], "phases", {"g": "p_nosuch"}),
        (lambda raw: raw["plans"], "R1|R1", [{"id": "x", "phases": {}}]),
    ],
)
def test_rejected_scenario_setting_is_one_line_and_exit_2(where, key, value, tmp_path, capsys):
    scenario, raw = _corridor2(tmp_path, capsys)
    where(raw)[key] = value
    scenario.write_text(yaml.safe_dump(raw))
    assert _run(scenario, tmp_path) == 2
    _one_error_line(capsys, key)


@pytest.mark.parametrize("name", sorted(fixtures.BUILTIN))
@pytest.mark.parametrize("with_mfd", [True, False])
def test_made_scenario_is_the_fixture_document(name, with_mfd, tmp_path):
    path = tmp_path / f"{name}.yaml"
    flags = [] if with_mfd else ["--without-mfd"]
    assert cli.main(["make-scenario", name, "-o", str(path)] + flags) == 0
    assert yaml.safe_load(path.read_text()) == fixtures.BUILTIN[name](with_mfd=with_mfd)
    loaded = netmodel.load_scenario(path)
    fixture = getattr(fixtures, name)(with_mfd=with_mfd)
    assert vars(loaded.network) == vars(fixture.network)
    for part in ("partition", "demand", "control", "mfd", "name"):
        assert getattr(loaded, part) == getattr(fixture, part)
    assert (loaded.mfd is None) == (not with_mfd)


def test_package_entry_point_writes_a_loadable_scenario(tmp_path):
    path = tmp_path / "grid6.yaml"
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "msjc", "make-scenario", "grid6", "-o", str(path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert netmodel.load_scenario(path).name == "grid6"


def _corridor2(tmp_path, capsys):
    scenario = tmp_path / "corridor2.yaml"
    assert cli.main(["make-scenario", "corridor2", "-o", str(scenario)]) == 0
    capsys.readouterr()
    return scenario, yaml.safe_load(scenario.read_text())


def _one_error_line(capsys, *needles):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    for needle in needles:
        assert needle in err


def test_missing_scenario_file_is_one_line_and_exit_2(tmp_path, capsys):
    assert _run(tmp_path / "missing.yaml", tmp_path) == 2
    _one_error_line(capsys, "missing.yaml", "cannot read scenario")


def _corridor2_and_mfd(tmp_path, capsys):
    scenario, raw = _corridor2(tmp_path, capsys)
    return scenario, raw["mfd"]


def _run_with_mfd(scenario, mfd_path, tmp_path):
    mfd = [] if mfd_path is None else ["--mfd", str(mfd_path)]
    return cli.main(
        ["run", "--scenario", str(scenario), "--strategy", "bp", "--out", str(tmp_path / "run"),
         "--cap", "300"] + mfd
    )


def test_missing_mfd_file_is_one_line_and_exit_2(tmp_path, capsys):
    scenario, _ = _corridor2_and_mfd(tmp_path, capsys)
    assert _run_with_mfd(scenario, tmp_path / "no_mfd.yaml", tmp_path) == 2
    _one_error_line(capsys, "no_mfd.yaml", "cannot read MFD file")


@pytest.mark.parametrize(
    "edit, needles",
    [
        (lambda mfd: mfd["R2"].pop("b1"), ("region R2", "'b1' is missing")),
        (lambda mfd: mfd["R1"].update(b3="x"), ("region R1", "b3 must be a float")),
        (lambda mfd: mfd.update(R7=dict(mfd["R1"])), ("unknown region 'R7'",)),
    ],
)
def test_bad_mfd_file_is_one_line_and_exit_2(edit, needles, tmp_path, capsys):
    scenario, mfd = _corridor2_and_mfd(tmp_path, capsys)
    edit(mfd)
    path = tmp_path / "mfd.yaml"
    path.write_text(yaml.safe_dump({"mfd": mfd}))
    assert _run_with_mfd(scenario, path, tmp_path) == 2
    _one_error_line(capsys, "mfd.yaml", *needles)


def test_bad_mfd_block_in_scenario_is_one_line_and_exit_2(tmp_path, capsys):
    scenario, _ = _corridor2_and_mfd(tmp_path, capsys)
    raw = yaml.safe_load(scenario.read_text())
    del raw["mfd"]["R1"]["b1"]
    scenario.write_text(yaml.safe_dump(raw))
    assert _run(scenario, tmp_path) == 2
    _one_error_line(capsys, "region R1", "'b1' is missing")


@pytest.mark.parametrize("command", ["run", "compare"])
def test_scenario_without_mfd_is_one_line_and_exit_2(command, tmp_path, capsys):
    scenario = tmp_path / "grid6.yaml"
    assert cli.main(["make-scenario", "grid6", "-o", str(scenario), "--without-mfd"]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    strategy = ["--strategy", "msjc"] if command == "run" else []
    assert cli.main([command, "--scenario", str(scenario), "--out", str(out)] + strategy) == 2
    _one_error_line(capsys, "no calibrated MFD", "--mfd")
    assert not out.exists()


def test_wrongly_typed_control_value_is_one_line_and_exit_2(tmp_path, capsys):
    scenario, _ = _corridor2_and_mfd(tmp_path, capsys)
    raw = yaml.safe_load(scenario.read_text())
    raw["control"]["t_macro_s"] = "abc"
    scenario.write_text(yaml.safe_dump(raw))
    assert _run(scenario, tmp_path) == 2
    _one_error_line(capsys, "t_macro_s", "'abc'")


def test_saved_mfd_runs_like_the_embedded_block(tmp_path, capsys):
    scenario, mfd = _corridor2_and_mfd(tmp_path, capsys)
    path = tmp_path / "mfd.yaml"
    path.write_text(yaml.safe_dump({"mfd": mfd}))
    assert _run_with_mfd(scenario, path, tmp_path) == 0
    with_file = capsys.readouterr().out
    assert _run_with_mfd(scenario, None, tmp_path) == 0
    assert capsys.readouterr().out == with_file


def test_calibrate_writes_an_mfd_file_that_reloads(tmp_path, capsys):
    scenario = tmp_path / "grid6.yaml"
    out = tmp_path / "mfd.yaml"
    assert cli.main(["make-scenario", "grid6", "-o", str(scenario)]) == 0
    assert cli.main(["calibrate", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 7  # "wrote", then one line per region
    assert_grid6_calibrated(mfd.load_mfd(out, ("R1", "R2", "R3", "R4", "R5", "R6")))


# corridor2 has 10 s micro steps.  A window under one step (or NaN) never
# closes, and one off the step grid would divide whole steps of flow by the
# wrong time.
@pytest.mark.parametrize(
    "flags, needle",
    [
        (["--window", "5"], "window 5.0 s"),
        (["--window", "125"], "window 125.0 s"),
        (["--window", "nan"], "window nan s"),
        (["--levels", "0.0001"], "rank-deficient"),  # raised by the fit
        (["--levels", "0.01"], "region R2: fitted flow is not positive"),
    ],
)
def test_calibration_that_cannot_fit_is_one_line_and_exit_2(flags, needle, tmp_path, capsys):
    scenario, _ = _corridor2(tmp_path, capsys)
    out = tmp_path / "mfd.yaml"
    assert cli.main(["calibrate", "--scenario", str(scenario), "--out", str(out)] + flags) == 2
    _one_error_line(capsys, needle)
    assert not out.exists()


# Each of these once ended in a traceback (numpy's negative seed, a NaN
# demand scale, an unknown strategy, an infinite calibration level) or in a
# run that did nothing useful (an empty network, no replication, one macro
# step reported truncated).
@pytest.mark.parametrize(
    "argv, needle",
    [
        (["run", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
        (["compare", "--seed", "-2"], "argument --seed: must be >= 0, got -2"),
        (["calibrate", "--seed", "-1"], "argument --seed: must be >= 0, got -1"),
        (["run", "--demand-scale", "nan"], "argument --demand-scale: must be finite and > 0"),
        (["run", "--demand-scale", "-1"], "argument --demand-scale: must be finite and > 0"),
        (["compare", "--strategies", "foo"], "argument --strategies: invalid choice: 'foo'"),
        (["compare", "--reps", "0"], "argument --reps: must be >= 1, got 0"),
        (["run", "--cap", "-5"], "argument --cap: must be finite and > 0, got -5"),
        (["calibrate", "--levels", "-1"], "argument --levels: must be finite and > 0, got -1"),
        (["calibrate", "--levels", "0.5", "inf"],
         "argument --levels: must be finite and > 0, got inf"),
    ],
)
def test_out_of_range_input_is_a_usage_error(argv, needle, tmp_path, capsys):
    scenario, _ = _corridor2(tmp_path, capsys)
    out = tmp_path / "out"
    strategy = ["--strategy", "bp"] if argv[0] == "run" else []
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv + ["--scenario", str(scenario), "--out", str(out)] + strategy)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert needle in err.splitlines()[-1] and "Traceback" not in err
    assert not out.exists()


# A demand scale that expects more vehicles than MAX_EXPECTED_VEHICLES once
# ended in numpy's "lam value too large" traceback; calibrate's only after
# the sweep's lower levels.
@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--strategy", "bp", "--demand-scale", "1e300"],
        ["calibrate", "--levels", "0.5", "1e300"],
    ],
)
def test_a_demand_scale_expecting_too_many_vehicles_is_one_line_and_exit_2(argv, tmp_path, capsys):
    scenario, _ = _corridor2(tmp_path, capsys)
    out = tmp_path / "out"
    assert cli.main(argv + ["--scenario", str(scenario), "--out", str(out)]) == 2
    _one_error_line(capsys, "demand scale 1e+300 expects", "vehicles over the demand horizon")
    assert not out.exists()


def test_the_least_whole_demand_scale_past_the_bound_is_one_line_and_exit_2(tmp_path, capsys):
    # grid6 at 741 expects 1,000,350 vehicles; the count once read "1e+06",
    # the bound's own figure
    scenario, out = tmp_path / "grid6.yaml", tmp_path / "out"
    assert cli.main(["make-scenario", "grid6", "-o", str(scenario)]) == 0
    capsys.readouterr()
    argv = ["run", "--scenario", str(scenario), "--strategy", "bp", "--out", str(out)]
    assert cli.main(argv + ["--demand-scale", "741"]) == 2
    _one_error_line(capsys, "demand scale 741 expects 1.00035e+06 vehicles over the demand horizon")
    assert not out.exists()


# Each of these once ended in an OSError traceback; calibrate's only after
# its whole sweep, which now never starts.
@pytest.mark.parametrize(
    "argv, out, needle",
    [
        (["make-scenario", "corridor2", "-o"], "nodir/x.yaml", "No such file or directory"),
        (["calibrate", "--scenario", "{scenario}", "--out"], "dir", "Is a directory"),
        (["calibrate", "--scenario", "{scenario}", "--out"], "nodir/mfd.yaml",
         "No such file or directory"),
        (["run", "--scenario", "{scenario}", "--strategy", "bp", "--out"], "file", "File exists"),
        (["compare", "--scenario", "{scenario}", "--strategies", "bp", "--out"], "file",
         "Not a directory"),
    ],
    ids=["make-scenario", "calibrate", "calibrate-missing-parent", "run", "compare"],
)
def test_unwritable_output_is_one_line_and_exit_2(
    argv, out, needle, tmp_path, capsys, monkeypatch
):
    def no_sweep(*args, **kwargs):
        raise AssertionError("calibrated before checking the output path")

    monkeypatch.setattr(runner, "calibrate", no_sweep)
    scenario, _ = _corridor2(tmp_path, capsys)
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    argv = [arg.format(scenario=scenario) for arg in argv] + [str(tmp_path / out)]
    assert cli.main(argv) == 2
    _one_error_line(capsys, "msjc: error: cannot write", str(tmp_path / out), needle)
    assert (tmp_path / "file").read_text() == ""


_HEADER = ",".join(f.name for f in fields(runner.RunMetrics) if f.name != "throughput_series")


# Each of these once ended in a KeyError traceback, printed nothing and
# exited 0, or exited 1 without the error prefix.
@pytest.mark.parametrize(
    "content, needle",
    [
        (None, "cannot read"),
        ("run,ttt\nbp,1.0\n", "missing column(s) strategy, seed"),
        (_HEADER + "\n", "no runs"),
        (_HEADER + "\nbp,0,abc,1,1,10.0,0,\n", "line 2: bad total_travel_time_veh_s cell 'abc'"),
        (_HEADER + "\nbp,0,1.0,1\n", "line 2: too few cells"),
    ],
    ids=["missing", "other-columns", "header-only", "bad-cell", "short-row"],
)
def test_unreadable_comparison_is_one_line_and_exit_2(content, needle, tmp_path, capsys):
    if content is not None:
        (tmp_path / "comparison.csv").write_text(content)
    assert cli.main(["report", "--out", str(tmp_path)]) == 2
    _one_error_line(capsys, "msjc: error:", str(tmp_path / "comparison.csv"), needle)
    assert not (tmp_path / "summary.csv").exists()


def test_truncated_run_names_the_stop_time_and_the_cap(tmp_path, capsys):
    scenario, _ = _corridor2(tmp_path, capsys)
    argv = ["run", "--scenario", str(scenario), "--strategy", "bp", "--out", str(tmp_path / "run")]
    assert cli.main(argv + ["--cap", "5"]) == 0
    printed = capsys.readouterr().out
    [metrics] = runner.read_metrics_csv(tmp_path / "run" / "metrics.csv")
    assert metrics.truncated and "cleared at" not in printed
    stopped = f"stopped at {metrics.clearance_time_s:.0f} s by the 5 s time cap, not cleared"
    assert printed.endswith(stopped + "\n")
