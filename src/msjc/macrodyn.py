"""Region-level traffic state.

State is kept per ordered region pair: ``n[(i, j)]`` counts vehicles in
region i whose destination region is j (including i == j).  Over one macro
step each region's completion flow is released, and the released vehicles
move to their chosen next region, scaled by the gating fractions ``b`` and
the hyper-path split fractions ``c``; ``jointctl`` builds that bookkeeping
as linear maps of the controls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol


class CompletionModel(Protocol):
    def evaluate(self, region: str, n: float) -> float: ...

    def critical(self, region: str) -> float: ...


@dataclass
class MacroState:
    n: dict[tuple[str, str], float]  # (region, destination region) -> veh
    q: dict[tuple[str, str], float]  # fresh demand per macro step, veh
    t_macro_s: float
    regions: tuple[str, ...]
    adjacency: Mapping[str, tuple[str, ...]]

    def accumulation(self, region: str) -> float:
        return sum(self.n.get((region, j), 0.0) for j in self.regions)

    def accumulations(self) -> dict[str, float]:
        return {i: self.accumulation(i) for i in self.regions}

    def validate(self) -> None:
        for key, value in self.n.items():
            if value < 0:
                raise ValueError(f"negative stock {key}: {value}")
        for key, value in self.q.items():
            if value < 0:
                raise ValueError(f"negative demand {key}: {value}")
