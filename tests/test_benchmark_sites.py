"""The benchmark under perfbench/ wraps program functions by module and
attribute name; a rename in the program must not leave one of them behind."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _Lookups:
    """Stands in for the benchmark's Tracer and Recorder: looks up each
    attribute they would wrap, and wraps nothing."""

    def __init__(self):
        self.sites = []

    def wrap(self, module, attr, *args, **kwargs):
        self.sites.append((module, attr, getattr(module, attr, None)))

    tap = wrap


def test_every_wrapped_attribute_is_a_program_function(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    lookups = _Lookups()
    run.trace_layers(lookups)
    traced = len(lookups.sites)
    for workload in workloads.WORKLOADS.values():
        workload(seed=1, workdir=tmp_path).tap(lookups)
    assert traced > 20 and len(lookups.sites) > traced
    missing = [f"{module.__name__}.{attr}" for module, attr, found in lookups.sites
               if not callable(found)]
    assert missing == []
