import itertools

import numpy as np
import pytest

from driftml.data import DataError
from driftml.stagger import (
    STAGGER_SCHEMA,
    StaggerConfig,
    concept_label,
    generate_stagger,
)


def rule(concept_id, size, color, shape):
    """Independent restatement of the three concepts."""
    if concept_id == 1:
        return size == 0 and color == 0  # small and red
    if concept_id == 2:
        return color == 1 or shape == 1  # green or circular
    return size in (1, 2)  # medium or large


def test_shape_and_schema():
    cfg = StaggerConfig(70_000, (17_500, 35_000, 52_500),
                        ((1, False), (1, True), (2, False), (3, False)), seed=0)
    batch = generate_stagger(cfg)
    assert len(batch) == 70_000
    assert batch.schema is STAGGER_SCHEMA
    assert batch.schema.n_features == 3
    assert set(np.unique(batch.X)) <= {0.0, 1.0, 2.0}


@pytest.mark.parametrize("concept_id", [1, 2, 3])
def test_labels_match_rules_on_all_27_combinations(concept_id):
    batch = generate_stagger(
        StaggerConfig(5_000, (), ((concept_id, False),), seed=concept_id)
    )
    seen = set()
    for i in range(len(batch)):
        size, color, shape = (int(v) for v in batch.X[i])
        seen.add((size, color, shape))
        assert batch.y[i] == int(rule(concept_id, size, color, shape))
    assert seen == set(itertools.product(range(3), repeat=3))


def test_inversion_flips_labels_at_drift_point():
    cfg = StaggerConfig(4_000, (2_000,), ((1, False), (1, True)), seed=5)
    batch = generate_stagger(cfg)
    for i in range(len(batch)):
        size, color, shape = (int(v) for v in batch.X[i])
        plain = int(rule(1, size, color, shape))
        expected = plain if i < 2_000 else 1 - plain
        assert batch.y[i] == expected


def test_class_balance_matches_analytic_rates():
    # positives: concept 1 -> 1/9, concept 2 -> 5/9, concept 3 -> 2/3
    n = 10_000
    for concept_id, p in ((1, 1 / 9), (2, 5 / 9), (3, 2 / 3)):
        batch = generate_stagger(StaggerConfig(n, (), ((concept_id, False),), seed=17))
        rate = batch.y.mean()
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(rate - p) <= 3 * sigma


def test_deterministic_under_seed():
    cfg = StaggerConfig(1_000, (500,), ((2, False), (3, True)), noise_rate=0.2, seed=9)
    a = generate_stagger(cfg)
    b = generate_stagger(cfg)
    assert a.X.tobytes() == b.X.tobytes()
    assert a.y.tobytes() == b.y.tobytes()
    c = generate_stagger(StaggerConfig(1_000, (500,), ((2, False), (3, True)),
                                       noise_rate=0.2, seed=10))
    assert a.y.tobytes() != c.y.tobytes()


def test_noise_flips_at_configured_rate():
    clean = generate_stagger(StaggerConfig(20_000, (), ((2, False),), seed=3))
    noisy = generate_stagger(StaggerConfig(20_000, (), ((2, False),), noise_rate=0.1, seed=3))
    flip_rate = (clean.y != noisy.y).mean()
    assert abs(flip_rate - 0.1) < 0.01


def test_config_validation():
    with pytest.raises(DataError):
        StaggerConfig(100, (50,), ((1, False),))  # schedule too short
    with pytest.raises(DataError):
        StaggerConfig(100, (200,), ((1, False), (2, False)))  # point outside
    with pytest.raises(DataError):
        StaggerConfig(100, (60, 40), ((1, False), (2, False), (3, False)))
    with pytest.raises(DataError):
        StaggerConfig(100, (), ((9, False),))  # unknown concept
    with pytest.raises(DataError):
        StaggerConfig(100, (), ((1, False),), noise_rate=0.5)


def test_concept_label_vectorized_agrees_with_rule():
    size, color, shape = np.meshgrid(range(3), range(3), range(3), indexing="ij")
    size, color, shape = size.ravel(), color.ravel(), shape.ravel()
    for cid in (1, 2, 3):
        got = concept_label(cid, size, color, shape)
        want = np.array([rule(cid, s, c, h) for s, c, h in zip(size, color, shape)])
        assert np.array_equal(got, want)


def test_stream_emits_as_csv(tmp_path):
    from conftest import write_csv
    from driftml.data import load_csv

    batch = generate_stagger(StaggerConfig(200, (100,), ((1, False), (2, True)), seed=2))
    path = str(tmp_path / "stagger.csv")
    write_csv(batch, path)
    schema, again = load_csv(path, "label")
    assert len(again) == 200
    # inferred levels sort lexicographically, so compare level names
    def names(b):
        levels = [f.levels for f in b.schema.features]
        return [[lv[int(v)] for lv, v in zip(levels, row)] for row in b.X]
    assert names(again) == names(batch)
    assert [schema.classes[c] for c in again.y] == [STAGGER_SCHEMA.classes[c] for c in batch.y]
