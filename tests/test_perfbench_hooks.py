"""Every name perfbench's timers wrap still exists and is callable.

``perfbench/workloads.bind_layers`` replaces package attributes by name; a
renamed function only shows up there as a failed wrapper self-check after a
full benchmark run.  This binds the hooks with a stub tracer instead, which
runs nothing.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class CheckingTracer:
    def __init__(self):
        self.names: list[str] = []

    def wrap(self, owner, attr, name, on_return=None):
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no callable {attr}"
        self.names.append(name)


def test_every_perfbench_hook_names_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    tracer = CheckingTracer()
    workloads.bind_layers(tracer)
    assert len(tracer.names) == len(set(tracer.names)) >= 20
    for workload in workloads.WORKLOADS:
        assert workloads.EXPECTED_BUSY[workload] <= set(tracer.names)
