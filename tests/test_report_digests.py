"""The report files of a short 5-arm STAGGER run, pinned by sha256.

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
"""

import hashlib
import os
import subprocess
import sys

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
    env = {**os.environ, **PINNED_BLAS,
           "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-m", "driftml.cli", "run", str(conf), "--out", str(out)],
                   env=env, check=True)
    assert {arm for arm in ARMS if adapted(out / f"report_{arm}.tsv")} == set(ARMS) - {"Base"}
    got = {name: sha256(out / name)
           for name in [f"report_{arm}.tsv" for arm in ARMS] + ["comparison.tsv"]}
    assert got == DIGESTS[metric]
