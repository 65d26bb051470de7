"""Region-level traffic state and transfer bookkeeping.

State is kept per ordered region pair: ``n[(i, j)]`` counts vehicles in
region i whose destination region is j (including i == j).  Over one macro
step each region's completion flow is released, and the released vehicles
move to their chosen next region, scaled by the gating fractions ``b`` and
the hyper-path split fractions ``c``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol

BKey = tuple[str, str]  # ordered (i, h)
TKey = tuple[str, str, str]  # (i, h, j)


class CompletionModel(Protocol):
    def evaluate(self, region: str, n: float) -> float: ...


@dataclass
class MacroState:
    t: int
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


@dataclass(frozen=True)
class TransferEstimate:
    type1: dict[tuple[str, str], float]  # released-at-boundary stock per (i, j)
    type2: dict[str, float]  # internal completions per region
    n_crossing: dict[TKey, float]  # veh transferred per (i, h, j)
    m_crossing: dict[TKey, float]  # veh/s per (i, h, j)
    m_boundary: dict[BKey, float]  # veh/s per ordered boundary


def completion_split(
    state: MacroState, mfd: CompletionModel
) -> tuple[dict[tuple[str, str], float], dict[str, float]]:
    """Split each region's completion flow into boundary-ready stock per
    destination (type I) and internal completions (type II), in vehicles per
    macro step.  Empty regions contribute zero."""
    type1: dict[tuple[str, str], float] = {}
    type2: dict[str, float] = {}
    for i in state.regions:
        n_i = state.accumulation(i)
        if n_i <= 0.0:
            type2[i] = 0.0
            for j in state.regions:
                if j != i:
                    type1[(i, j)] = 0.0
            continue
        total = mfd.evaluate(i, n_i) * state.t_macro_s
        type2[i] = state.n.get((i, i), 0.0) / n_i * total
        for j in state.regions:
            if j != i:
                type1[(i, j)] = state.n.get((i, j), 0.0) / n_i * total
    return type1, type2


def _check_controls(
    state: MacroState, b: Mapping[BKey, float], c: Mapping[TKey, float]
) -> None:
    for key, value in b.items():
        if not -1e-9 <= value <= 1.0 + 1e-9:
            raise ValueError(f"b{key} = {value} outside [0, 1]")
    sums: dict[tuple[str, str], float] = {}
    for (i, h, j), value in c.items():
        if value < -1e-9:
            raise ValueError(f"c{(i, h, j)} = {value} negative")
        sums[(i, j)] = sums.get((i, j), 0.0) + value
    for (i, j), total in sums.items():
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"sum_h c[{i},h,{j}] = {total} != 1")


def transfers(
    state: MacroState,
    mfd: CompletionModel,
    b: Mapping[BKey, float],
    c: Mapping[TKey, float],
) -> TransferEstimate:
    """Boundary transfers implied by controls (b, c) on the current state."""
    _check_controls(state, b, c)
    type1, type2 = completion_split(state, mfd)
    n_crossing: dict[TKey, float] = {}
    m_crossing: dict[TKey, float] = {}
    m_boundary: dict[BKey, float] = {}
    for i in state.regions:
        for h in state.adjacency[i]:
            m_boundary[(i, h)] = 0.0
            for j in state.regions:
                if j == i:
                    continue
                released = type1.get((i, j), 0.0)
                moved = b.get((i, h), 0.0) * c.get((i, h, j), 0.0) * released
                n_crossing[(i, h, j)] = moved
                m_crossing[(i, h, j)] = moved / state.t_macro_s
                m_boundary[(i, h)] += moved / state.t_macro_s
    return TransferEstimate(type1, type2, n_crossing, m_crossing, m_boundary)
