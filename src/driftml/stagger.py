"""Synthetic STAGGER stream with scheduled abrupt concept changes.

Three categorical attributes are drawn uniformly:

    size  in {small, medium, large}
    color in {red, green, blue}
    shape in {square, circular, triangular}

The active concept labels each instance:

    concept 1: size = small  AND color = red
    concept 2: color = green OR  shape = circular
    concept 3: size = medium OR  size = large

A schedule entry may invert the concept (label complement), which models the
abrupt synthetic drift used in the evaluation runs. Optional label noise
flips each label independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Batch, DataError, Feature, Schema

SIZE_LEVELS = ("small", "medium", "large")
COLOR_LEVELS = ("red", "green", "blue")
SHAPE_LEVELS = ("square", "circular", "triangular")

STAGGER_SCHEMA = Schema(
    features=(
        Feature("size", SIZE_LEVELS),
        Feature("color", COLOR_LEVELS),
        Feature("shape", SHAPE_LEVELS),
    ),
    label_name="label",
    classes=("false", "true"),
)


@dataclass(frozen=True)
class StaggerConfig:
    n_instances: int
    drift_points: tuple[int, ...] = ()
    # (concept_id in {1,2,3}, inverted) per segment; len = len(drift_points)+1
    concept_schedule: tuple[tuple[int, bool], ...] = ((1, False),)
    noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_instances < 1:
            raise DataError("n_instances must be >= 1")
        if len(self.concept_schedule) != len(self.drift_points) + 1:
            raise DataError(
                f"schedule length {len(self.concept_schedule)} != "
                f"{len(self.drift_points)} drift points + 1"
            )
        for p in self.drift_points:
            if not 0 < p < self.n_instances:
                raise DataError(f"drift point {p} outside stream")
        if list(self.drift_points) != sorted(set(self.drift_points)):
            raise DataError("drift points must be strictly increasing")
        for concept_id, _ in self.concept_schedule:
            if concept_id not in (1, 2, 3):
                raise DataError(f"unknown concept id {concept_id}")
        if not 0.0 <= self.noise_rate < 0.5:
            raise DataError("noise_rate must lie in [0, 0.5)")


def concept_label(concept_id: int, size: np.ndarray, color: np.ndarray, shape: np.ndarray) -> np.ndarray:
    if concept_id == 1:
        return (size == 0) & (color == 0)
    if concept_id == 2:
        return (color == 1) | (shape == 1)
    if concept_id == 3:
        return (size == 1) | (size == 2)
    raise DataError(f"unknown concept id {concept_id}")


def generate_stagger(cfg: StaggerConfig) -> Batch:
    """Draw the configured stream; deterministic under (config, seed)."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_instances
    size = rng.integers(0, 3, size=n)
    color = rng.integers(0, 3, size=n)
    shape = rng.integers(0, 3, size=n)

    label = np.zeros(n, dtype=bool)
    bounds = (0,) + tuple(cfg.drift_points) + (n,)
    for seg, (concept_id, inverted) in enumerate(cfg.concept_schedule):
        lo, hi = bounds[seg], bounds[seg + 1]
        seg_label = concept_label(concept_id, size[lo:hi], color[lo:hi], shape[lo:hi])
        label[lo:hi] = ~seg_label if inverted else seg_label

    if cfg.noise_rate > 0.0:
        flip = rng.random(n) < cfg.noise_rate
        label ^= flip

    X = np.stack([size, color, shape], axis=1).astype(np.float64)
    y = label.astype(np.int64)  # classes are ("false", "true")
    return Batch(STAGGER_SCHEMA, X, y)

