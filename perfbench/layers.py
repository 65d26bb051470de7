"""Timers bound around the msjc package's public functions from outside.

Nothing in ``src/msjc`` knows about this module: every timer is installed by
replacing a module or class attribute for the duration of a ``with`` block
and restoring it afterwards.  A timer is bound where the caller looks the
name up (``runner.bp_control``, not ``baselines.bp_control``), so a patch on
a name nobody calls shows up as ``calls == 0`` in the wrapper self-check.

Nested timers form spans: each call's busy time is charged to its own layer,
and its parent's self time excludes it.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable

clock = time.perf_counter


@dataclass
class Layer:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    durations_s: list[float] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value


# on_return(layer, args, kwargs, result) records a layer's own count
OnReturn = Callable[[Layer, tuple, dict, object], None]


class Patches:
    """Attribute replacements undone in reverse order on exit."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        # read a class's own function, not the bound or inherited attribute
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer(Patches):
    """Per-layer calls, busy time and self time for every wrapped function."""

    def __init__(self) -> None:
        super().__init__()
        self.layers: dict[str, Layer] = {}
        self._open: list[float] = []  # child busy time of each open span

    def wrap(self, owner: object, attr: str, name: str, on_return: OnReturn | None = None) -> None:
        layer = self.layers.setdefault(name, Layer())
        open_spans = self._open

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def timed(*args, **kwargs):
                open_spans.append(0.0)
                t0 = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    busy = clock() - t0
                    children = open_spans.pop()
                    if open_spans:
                        open_spans[-1] += busy
                    layer.calls += 1
                    layer.busy_s += busy
                    layer.self_s += busy - children
                    layer.durations_s.append(busy)
                if on_return is not None:
                    on_return(layer, args, kwargs, result)
                return result

            return timed

        self.replace(owner, attr, make)
