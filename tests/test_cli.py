import yaml

from msjc import cli


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
