"""The benchmark's tracer (perfbench/tracer.py) patches driftml functions by
name on the modules that call them. A refactor that renames or moves one of
those names must fail here, not only in a traced benchmark run."""

import os

from driftml import classifiers, cli, data, ensemble, lifelong, metrics, pipeline, search

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
OWNERS = (
    cli, data, ensemble, lifelong, metrics, search, pipeline.TrainedPipeline,
    classifiers.DecisionTreeClassifier, classifiers.NaiveBayesClassifier,
    classifiers.LogisticSgdClassifier, classifiers.KnnClassifier,
)


def snapshot() -> dict:
    return {(owner.__name__, name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_tracer_patches_every_target_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer

    before = snapshot()
    tracer = Tracer()
    try:
        tracer.install()
        during = snapshot()
    finally:
        tracer.uninstall()
    after = snapshot()
    assert during.keys() == before.keys() == after.keys()
    patched = [key for key in before if during[key] is not before[key]]
    assert len(patched) == 24, patched
    assert all(after[key] is before[key] for key in before)
