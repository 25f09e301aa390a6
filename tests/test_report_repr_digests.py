"""The deterministic fields of each arm's ``RunReport``, pinned by the
sha256 of their ``repr``, as perfbench's ``report_digest`` takes them.

The report files round each batch's score to six places, so a score that
changes in its last bits, or a float that turns into a numpy scalar (whose
``repr`` differs), leaves ``tests/test_report_digests.py`` green. This test
runs that file's STAGGER configs (both metrics) and its numeric CSV config
through ``cli.run_experiment`` in a child process with the same pinned BLAS
setting, and hashes ``repr((per_batch, drift_events, adapt_events,
mean_metric))`` per arm.
"""

import subprocess
import sys

import pytest

from test_report_digests import NUMERIC_RUN, STREAM, pinned_env, write_numeric_csv

REPORT_DIGESTS = """
import hashlib
import sys
from driftml import cli
with open(sys.argv[1]) as fh:
    cfg = cli.parse_config(fh.read())
for report in cli.run_experiment(cfg, sys.argv[2]):
    fields = (report.per_batch, report.drift_events, report.adapt_events, report.mean_metric)
    print(report.strategy, hashlib.sha256(repr(fields).encode()).hexdigest())
"""

DIGESTS = {
    "accuracy": {
        "Base": "409fcadff49801fd7fb9d51a7519bacbef03d4ce696f1facf8c736f08234f0f2",
        "Replacement": "3982547d0df5ae801af26f64e7ba031d3cfb728f59a33d959ab5bf5a8daaff3f",
        "WU-all": "035a43a5c1519e9e25cea2fad234d0b9cf3bde4828dbfbe74a5c013f92d6bcce",
        "WU-latest": "c2c64dc0fdf97bea2771c4d29143335994daae14a3cabe9b3841b9f9826e4af1",
        "Add-New": "c13c78a1fd4dc3bbd4761cf42ab40c776d1c04136102451a57b9a99cb42bbf2b",
    },
    "normalized_auc": {
        "Base": "9fa4118a8a19176615f06547db9b866e214864f4fe0b9bc2674fb9c4ba485e80",
        "Replacement": "fda847e6acddd6a1b1abedd6bfe37973c81e4ce4abdc3a6b4e973434ca3c1abb",
        "WU-all": "bb6dc3d32009e35fdfc313af312d12676775425f243b4e7c370aca892d631e9a",
        "WU-latest": "16ac849bd2e0b82deff08e015f596a594e62bd6730909a46c34e792e77d0e5a2",
        "Add-New": "06e80baed05733b79e5bed0e7f727f13eb48079e23e61221b772cda3c8779cb3",
    },
    "numeric-csv": {
        "Base": "fb6c17bc75c5a0f75a5508e20130e71f1982b087453fa89078989f919ee11aae",
        "WU-all": "f494d84fd520556732071cb7b4fde246dd23c935e5a2cb407df37b3c539aa958",
    },
}


def report_digests(cwd, conf) -> dict:
    done = subprocess.run([sys.executable, "-c", REPORT_DIGESTS, conf, "out"], cwd=cwd,
                          env=pinned_env(), check=True, capture_output=True, text=True)
    return dict(line.split() for line in done.stdout.splitlines())


@pytest.mark.parametrize("metric", ["accuracy", "normalized_auc"])
def test_stagger_report_fields_equal_the_recorded_digests(tmp_path, metric):
    (tmp_path / "run.conf").write_text(STREAM.format(metric=metric))
    assert report_digests(tmp_path, "run.conf") == DIGESTS[metric]


def test_numeric_csv_report_fields_equal_the_recorded_digests(tmp_path):
    write_numeric_csv(tmp_path / "numeric.csv")
    (tmp_path / "run.conf").write_text(NUMERIC_RUN)
    assert report_digests(tmp_path, "run.conf") == DIGESTS["numeric-csv"]
