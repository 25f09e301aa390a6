"""Benchmark workloads: driftml experiment configs and the inputs they read.

Each workload is a plain driftml config, written to disk the way a user
would write one for ``driftml run``. The seed draws the inputs; the sizes
are fixed here so that a run measures the same amount of work on every
commit.
"""

from __future__ import annotations

import math
import os

import numpy as np

# STAGGER stream length. Drifts sit at the quarters, so each concept spans
# two 1000-row batches and every arm meets all three changes. The stream
# stays below the 10,000-row validation cap of the WU arms.
STAGGER_INSTANCES = 8_000

# Shape of the generated numeric stream: Electricity's 8 normalised
# attributes and binary class, cut to a length a repetition can afford.
# With 4 segments of 3,500 rows, the last change (at row 10,500) makes WU-all
# rescore on a stratified sample capped at 10,000 of the 11,000 stored rows.
NUMERIC_ROWS = 14_000
NUMERIC_COLUMNS = ("date", "day", "period", "nswprice", "nswdemand",
                   "vicprice", "vicdemand", "transfer")
NUMERIC_SEGMENTS = 4
NUMERIC_NOISE = 0.10
NUMERIC_ROTATION = math.pi / 3  # angle between consecutive segment concepts
# The initial batch of numeric-csv comes from this fixed seed, so its
# initial search always yields the same ensemble, which sets the cost of the
# read path. With the batch drawn from the seed, Base alone spread 0.4-2.5 s
# over seeds 1-3. Seed 4 gives an ensemble with a k-NN member (seeds 0-11 do
# in 6 of 12 cases), so the read path exercises k-NN predict.
NUMERIC_TRAIN_SEED = 4
# The [run] seed draws 4 of the 16 candidate configurations and the holdout
# splits. Tied to the workload seed, it moved first_model_s by 25% between
# seeds, so every workload keeps the bundled configs' value.
RUN_SEED = 42

BATCH_SIZE = 1_000

WORKLOADS = {
    "stagger-refit": {
        "dataset": "stagger",
        "metric": "accuracy",
        "strategies": ("Replacement", "Add-New"),
    },
    "stagger-reweight-auc": {
        "dataset": "stagger",
        "metric": "normalized_auc",
        "strategies": ("WU-all", "WU-latest"),
    },
    "numeric-csv": {
        "dataset": "csv",
        "metric": "accuracy",
        "strategies": ("Base", "WU-all"),
    },
}

_COMMON = """
[run]
batch_size = {batch}
strategies = {strategies}
metric = {metric}
seed = {run_seed}

[budget]
max_candidates = 16
validation_fraction = 0.33

[detector]
window = 25
delta = 1e-7

[ensemble]
rounds = 50
"""


def _stagger_dataset(seed: int) -> str:
    q = STAGGER_INSTANCES // 4
    return (
        "[dataset]\nkind = stagger\n"
        f"n_instances = {STAGGER_INSTANCES}\n"
        f"drift_points = {q}, {2 * q}, {3 * q}\n"
        "concepts = 1, 1i, 2, 3\nnoise_rate = 0.0\n"
        f"seed = {seed}\n"
    )


def write_numeric_csv(path: str, seed: int) -> None:
    """Electricity-shaped CSV: uniform attributes in [0, 1], labels from a
    hyperplane through the centre that turns by ``NUMERIC_ROTATION`` at each
    of the abrupt segment boundaries, then ``NUMERIC_NOISE`` label flips.
    The first batch comes from a fixed seed, the rest from ``seed``, each
    through its own stream, so no seed repeats the first batch's rows."""
    d = len(NUMERIC_COLUMNS)
    parts = []
    for key, n in (([NUMERIC_TRAIN_SEED, 7], BATCH_SIZE),
                   ([seed, 8], NUMERIC_ROWS - BATCH_SIZE)):
        rng = np.random.default_rng(key)
        x = rng.random((n, d))
        flip = rng.random(n) < NUMERIC_NOISE
        parts.append((x, flip))
    X = np.concatenate([p[0] for p in parts])
    flip = np.concatenate([p[1] for p in parts])

    w0 = np.tile([1.0, -1.0], d // 2) / math.sqrt(d)
    u = np.tile([1.0, 1.0, -1.0, -1.0], d // 4) / math.sqrt(d)
    label = np.empty(NUMERIC_ROWS, dtype=bool)
    bounds = [round(i * NUMERIC_ROWS / NUMERIC_SEGMENTS) for i in range(NUMERIC_SEGMENTS + 1)]
    for s in range(NUMERIC_SEGMENTS):
        angle = s * NUMERIC_ROTATION
        w = math.cos(angle) * w0 + math.sin(angle) * u
        lo, hi = bounds[s], bounds[s + 1]
        label[lo:hi] = (X[lo:hi] - 0.5) @ w > 0
    label ^= flip

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(NUMERIC_COLUMNS) + ",class\n")
        for row, up in zip(X, label):
            fh.write(",".join(f"{v:.6f}" for v in row) + (",UP\n" if up else ",DOWN\n"))


def prepare(workload: str, seed: int, work_dir: str) -> str:
    """Write the workload's config (and CSV) under ``work_dir``; return the
    config path."""
    spec = WORKLOADS[workload]
    if spec["dataset"] == "stagger":
        dataset = _stagger_dataset(seed)
    else:
        csv_path = os.path.join(work_dir, "numeric.csv")
        write_numeric_csv(csv_path, seed)
        dataset = f"[dataset]\nkind = csv\npath = {csv_path}\nlabel_column = class\n"
    text = dataset + _COMMON.format(
        batch=BATCH_SIZE,
        strategies=", ".join(spec["strategies"]),
        metric=spec["metric"],
        run_seed=RUN_SEED,
    )
    path = os.path.join(work_dir, f"{workload}.conf")
    with open(path, "w") as fh:
        fh.write(text)
    return path
