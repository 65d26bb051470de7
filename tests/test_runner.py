import csv

import pytest

from msjc import fixtures, mesosim, runner

# corridor2, seed 0: every strategy injects and completes 856 vehicles.
# Per strategy: total travel time (veh.s) and the time the network clears (s).
GOLDEN = {
    "msjc": (101_620.0, 1650.0),
    "mspc-lr": (109_970.0, 1610.0),
    "bp-lr": (95_780.0, 1610.0),
    "mspc": (114_850.0, 1610.0),
    "bp": (95_810.0, 1610.0),
}

CSV_HEADERS = {
    "observations.csv": [
        "step", "time_s", "N_R1", "N_R2", "m_R1_R2", "m_R2_R1",
        "queue_total", "entry_queue", "in_network", "completed", "throughput_cum",
    ],
    "joint.csv": [
        "t_index", "time_s", "z", "residual", "feasible", "start_index",
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


def _headline(m: runner.RunMetrics) -> tuple:
    return (
        m.total_travel_time_veh_s,
        m.throughput_veh,
        m.injected_veh,
        m.clearance_time_s,
        m.truncated,
    )


@pytest.mark.parametrize("strategy", runner.STRATEGIES)
def test_golden_corridor2(strategy):
    scenario = fixtures.corridor2()
    m = runner.run(scenario, runner.RunConfig(strategy=strategy, seed=0))
    ttt, clearance = GOLDEN[strategy]
    assert _headline(m) == (ttt, 856, 856, clearance, False)
    again = runner.run(scenario, runner.RunConfig(strategy=strategy, seed=0))
    assert _headline(again) == _headline(m)


@pytest.mark.parametrize("strategy", ["msjc", "bp"])
def test_golden_corridor2_writes_every_log(strategy, tmp_path):
    m = runner.run(
        fixtures.corridor2(),
        runner.RunConfig(strategy=strategy, seed=0, out_dir=tmp_path),
    )
    assert m.total_travel_time_veh_s == GOLDEN[strategy][0]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        list(CSV_HEADERS) + ["manifest.json"]
    )
    for name, header in CSV_HEADERS.items():
        with open(tmp_path / name, newline="") as fh:
            assert next(csv.reader(fh)) == header, name


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
