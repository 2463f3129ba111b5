"""The benchmark under perfbench/ wraps program functions by module and
attribute name; a rename in the program must not leave one of them behind,
and a rewrite must not route the work around them."""

from pathlib import Path

from codecomp import concepts, cotrain
from codecomp.context import HashedWindowProvider
from codecomp.corpus import Document
from codecomp.presets import task_preset

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


def test_one_document_reaches_every_concepts_and_context_layer(monkeypatch, lexicons):
    # the per-layer metrics read a layer's calls and time; a layer that the
    # program no longer calls through its wrapped name would read 0
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import taps

    class Tracer(taps.Tracer):
        def __init__(self):
            super().__init__()
            self.layers = set()

        def wrap(self, module, attr, key, **kwargs):
            self.layers.add(key)
            super().wrap(module, attr, key, **kwargs)

    preset = task_preset("adr")
    doc = Document(id="1", text="went to the er. my mom took pepto bismol\nis fine")
    tracer = Tracer()
    run.trace_layers(tracer)
    try:
        pdoc = concepts.process_document(doc, preset, lexicons)
        cotrain.build_examples([pdoc], HashedWindowProvider(window=3, dim=64))
    finally:
        tracer.remove()
    layers = sorted(k for k in tracer.layers if k.startswith(("concepts.", "context.")))
    assert len(layers) == 5
    assert [k for k in layers if tracer.calls[k] == 0] == []
    assert tracer.counts["concepts.mentions"] == 5  # i, my, mom, pepto bismol, i
