"""The report files of a short 5-arm STAGGER run and of a short numeric
CSV run, pinned by sha256.

A speed-up must leave every deterministic report byte-identical. The
digests below were recorded before the distinct-row scoring paths existed
(predicting every holdout row, and one ``score`` call per member and
selection round), so any change to what a run writes fails here.

The run goes through ``driftml run`` in a child process with one BLAS
thread and OpenBLAS's SkylakeX kernels, the setting the digests were
recorded with (numpy 2.4.6 with OpenBLAS 0.3.31): the reports depend on
both (Replacement under normalized_auc differs between one and two threads,
and between the SkylakeX and the Haswell kernels), and either setting only
takes effect before numpy loads. SkylakeX kernels need an AVX-512 CPU.

The STAGGER ensembles hold no k-NN member, so the numeric CSV run pins the
k-NN read path: its initial ensemble holds one, and every row is distinct.
"""

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PINNED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "OPENBLAS_CORETYPE": "SkylakeX"}

# Four concepts of 1,000 rows, 500-row batches, 5% label noise, the search
# budget and selection rounds of configs/stagger.conf: the detector fires in
# every arm, every adapting arm adapts, and under accuracy the five arms'
# means all differ (with seeds 3 and 11 they were all equal).
STREAM = """
[dataset]
kind = stagger
n_instances = 4000
drift_points = 1000, 2000, 3000
concepts = 1, 1i, 2, 3
noise_rate = 0.05
seed = 8

[run]
batch_size = 500
strategies = Base, Replacement, WU-all, WU-latest, Add-New
metric = {metric}
seed = 3

[budget]
max_candidates = 16

[ensemble]
rounds = 50
"""

ARMS = ("Base", "Replacement", "WU-all", "WU-latest", "Add-New")

DIGESTS = {
    "accuracy": {
        "report_Base.tsv": "257c5a2e4241af1a62a5cd36a5c28f0ccc3ef19dfa026a90685664ac62309213",
        "report_Replacement.tsv": "18db835a23a4410ec90116e59f8a6737b1991a098733942653f703e30bdd965a",
        "report_WU-all.tsv": "694ae7869b3135954193fa9ded5890b7a76e477a99bf0d1a459996c8586ea0a2",
        "report_WU-latest.tsv": "a305802a1e63a12eca870e77f8fa52cf65551bab377c95377265769aa7d12b9e",
        "report_Add-New.tsv": "3a2079a9223a00faa596577cee9b0f56fcdc812a85bd9d2f75bcd01ae74594d3",
        "comparison.tsv": "3f72d16de18e1f29c5cdd09ae8162edad6af5bb99ec3a6c1874b94bbd6cb2af1",
    },
    "normalized_auc": {
        "report_Base.tsv": "57da9daa058dd6b834f7001ae015011df74492869733d626c536ffc459b1b712",
        "report_Replacement.tsv": "7037deadf71ce98ecb469b9603799478b9a6ad87ab1230bcce609a877518c3ec",
        "report_WU-all.tsv": "fb46fc7b977fe47d91f02d87213954ca122a6fdee5dc8316c5c556379a4f894f",
        "report_WU-latest.tsv": "2e7de2255e2d873bba7a2e496b666aa780394b09c4da3b7342f7e7b0a5e3579e",
        "report_Add-New.tsv": "76044a6c39680560ff0919ab5bab27e41537efbdf962c69cefbbf8c8e82fc74a",
        "comparison.tsv": "846193112bc5c63a5063ab46086880f8ea57a6fca572e01a823b33872b246d90",
    },
}


# Eight uniform columns in [0, 1] from a fixed seed; labels from a hyperplane
# through the centre that turns by pi/3 at rows 1,000 and 2,000, then 10%
# label flips. Base and WU-all: every batch predicts the initial ensemble,
# and WU-all rescores its library (k-NN members among them) on drift. With
# seed 1 the initial ensemble holds three k-NN members (k = 5, 11, 25 share
# one reference set); seeds 0, 4 and 5 give a lone logistic model.
NUMERIC_SEED = 1
NUMERIC_RUN = """
[dataset]
kind = csv
path = numeric.csv
label_column = class

[run]
batch_size = 500
strategies = Base, WU-all
metric = accuracy
seed = 42

[budget]
max_candidates = 16
validation_fraction = 0.33

[ensemble]
rounds = 50
"""

NUMERIC_DIGESTS = {
    "report_Base.tsv": "b9b99423ba3447f123e77d1d2b022393d25f95398009e6a3b3f2cb6b4961ffe3",
    "report_WU-all.tsv": "88590e1feef39c81044c5649930d467632ec38bd859f000e4b8d4f363c7512fc",
    "comparison.tsv": "696aa1b84212af3885994d232e5367d95637eec0df5bfaaecf18d7e797b85150",
}

# The classifier families of the initial ensemble that ``run_lifelong``
# selects, printed one name per member.
INITIAL_FAMILIES = """
import sys
from driftml import cli
from driftml.data import split_stream
from driftml.ensemble import select_ensemble
from driftml.pipeline import default_config_portfolio
from driftml.search import run_search
with open(sys.argv[1]) as fh:
    cfg = cli.parse_config(fh.read())
train = split_stream(cli.load_dataset(cfg), cfg.batch_size)[0]
library = run_search(train, cli._search_budget(cfg), default_config_portfolio(), cfg.metric)
ensemble = select_ensemble(library, cfg.ensemble_rounds, cfg.metric)
print(" ".join(type(library.members[i].pipeline.classifier).__name__
               for i in ensemble.member_refs))
"""


def write_numeric_csv(path, n=3_000, d=8, noise=0.10):
    rng = np.random.default_rng(NUMERIC_SEED)
    X = rng.random((n, d))
    flip = rng.random(n) < noise
    w0 = np.tile([1.0, -1.0], d // 2) / math.sqrt(d)
    u = np.tile([1.0, 1.0, -1.0, -1.0], d // 4) / math.sqrt(d)
    label = np.empty(n, dtype=bool)
    for s, (lo, hi) in enumerate([(0, 1_000), (1_000, 2_000), (2_000, n)]):
        w = math.cos(s * math.pi / 3) * w0 + math.sin(s * math.pi / 3) * u
        label[lo:hi] = (X[lo:hi] - 0.5) @ w > 0
    label ^= flip
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{j}" for j in range(d)) + ",class\n")
        for row, up in zip(X, label):
            fh.write(",".join(repr(float(v)) for v in row) + (",UP\n" if up else ",DOWN\n"))
    return X


def pinned_env():
    return {**os.environ, **PINNED_BLAS,
            "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def adapted(report) -> bool:
    """Whether any row of a ``report_*.tsv`` table has its adapted flag set."""
    rows = [l.split("\t") for l in report.read_text().splitlines() if l and not l.startswith("#")]
    return any(row[3] == "1" for row in rows[1:])


@pytest.mark.parametrize("metric", sorted(DIGESTS))
def test_reports_equal_the_recorded_digests(tmp_path, metric):
    conf, out = tmp_path / "run.conf", tmp_path / "out"
    conf.write_text(STREAM.format(metric=metric))
    subprocess.run([sys.executable, "-m", "driftml.cli", "run", str(conf), "--out", str(out)],
                   env=pinned_env(), check=True)
    assert {arm for arm in ARMS if adapted(out / f"report_{arm}.tsv")} == set(ARMS) - {"Base"}
    got = {name: sha256(out / name)
           for name in [f"report_{arm}.tsv" for arm in ARMS] + ["comparison.tsv"]}
    assert got == DIGESTS[metric]


def test_numeric_csv_reports_with_a_knn_member_equal_the_recorded_digests(tmp_path):
    X = write_numeric_csv(tmp_path / "numeric.csv")
    assert len(np.unique(X, axis=0)) == len(X)
    (tmp_path / "run.conf").write_text(NUMERIC_RUN)
    families = subprocess.run([sys.executable, "-c", INITIAL_FAMILIES, "run.conf"], cwd=tmp_path,
                              env=pinned_env(), check=True, capture_output=True, text=True)
    assert "KnnClassifier" in families.stdout.split(), families.stdout
    subprocess.run([sys.executable, "-m", "driftml.cli", "run", "run.conf", "--out", "out"],
                   cwd=tmp_path, env=pinned_env(), check=True)
    assert adapted(tmp_path / "out" / "report_WU-all.tsv")
    got = {name: sha256(tmp_path / "out" / name)
           for name in ["report_Base.tsv", "report_WU-all.tsv", "comparison.tsv"]}
    assert got == NUMERIC_DIGESTS
