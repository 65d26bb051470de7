import pytest

from msjc import fixtures, mesosim, runner


def test_broken_vehicle_balance_raises(monkeypatch):
    advance = mesosim.Simulator.advance

    def leaky_advance(self, plans):
        obs = advance(self, plans)
        self.completed_total += 1
        return obs

    monkeypatch.setattr(mesosim.Simulator, "advance", leaky_advance)
    with pytest.raises(
        RuntimeError,
        match=r"created \d+ != completed \d+ \+ in network \d+ \+ entry queue \d+",
    ):
        runner.run(fixtures.corridor2(), runner.RunConfig(strategy="bp", seed=0))
