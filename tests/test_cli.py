import ast
import os
import pathlib
import re

import numpy as np
import pytest

from driftml import cli
from driftml.cli import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_RUNTIME,
    main,
    parse_config,
    render_deltas,
    run_experiment,
)
from driftml.lifelong import Strategy

SMALL_STAGGER = """
[dataset]
kind = stagger
n_instances = 2000
drift_points = 1000
concepts = 1, 3
seed = 5

[run]
batch_size = 400
strategies = {strategies}
metric = accuracy
seed = 7

[budget]
max_candidates = 4

[ensemble]
rounds = 10
"""


def config_file(tmp_path, text, name="exp.conf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
CSV_CONFIG = """
[dataset]
kind = csv
path = data/toy.csv
label_column = y

[run]
metric = normalized_auc
strategies = WU-all, Base
"""


@pytest.mark.parametrize("text", [
    SMALL_STAGGER.format(strategies="Base, Replacement"),
    CSV_CONFIG,
    SMALL_STAGGER.format(strategies="Base").replace("[budget]\n", "[budget]\nmax_seconds = 2.5\n"),
] + [pathlib.Path(CONFIGS, name).read_text() for name in sorted(os.listdir(CONFIGS))],
    ids=["stagger", "csv", "max_seconds"] + sorted(os.listdir(CONFIGS)))
def test_parse_round_trip_is_normal_form(text):
    cfg = parse_config(text)
    normalized = cfg.normalized_text()
    again = parse_config(normalized)
    assert again == cfg
    assert again.normalized_text() == normalized  # fixpoint


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("[dataset]\nkind = stagger\nbroken-line\n")
    with pytest.raises(ConfigError, match="outside any"):
        parse_config("kind = stagger\n")
    with pytest.raises(ConfigError, match="unknown config sections"):
        parse_config("[dataset]\nkind = stagger\n[extra]\na = 1\n")
    with pytest.raises(ConfigError, match="metric"):
        parse_config(SMALL_STAGGER.format(strategies="Base").replace(
            "metric = accuracy", "metric = rmse"))
    with pytest.raises(ConfigError):
        parse_config(SMALL_STAGGER.format(strategies="Base, Base"))
    with pytest.raises(ConfigError, match=r"line 11: key 'batch_size' in \[run\] repeats line 10"):
        parse_config(SMALL_STAGGER.format(strategies="Base").replace(
            "batch_size = 400", "batch_size = 100\nbatch_size = 300"))
    with pytest.raises(ConfigError, match=r"line 20: unknown key 'roundz' in \[ensemble\]"):
        parse_config(SMALL_STAGGER.format(strategies="Base") + "roundz = 7\n")


@pytest.mark.parametrize("strategies", ["", ","])
def test_an_empty_strategy_list_is_a_config_error(tmp_path, strategies):
    text = SMALL_STAGGER.format(strategies=strategies)
    with pytest.raises(ConfigError, match=r"\[run\] strategies"):
        parse_config(text)
    path = config_file(tmp_path, text)
    assert main(["run", path, "--out", str(tmp_path / "never")]) == EXIT_CONFIG
    assert not (tmp_path / "never").exists()


@pytest.mark.parametrize("seconds", ["nan", "-1", "-inf"])
def test_a_max_seconds_that_never_binds_is_a_config_error(seconds):
    text = SMALL_STAGGER.format(strategies="Base").replace(
        "[budget]\n", f"[budget]\nmax_seconds = {seconds}\n")
    with pytest.raises(ConfigError, match=r"\[budget\] max_seconds"):
        parse_config(text)


def test_an_infinite_max_seconds_is_a_config_error():
    text = SMALL_STAGGER.format(strategies="Base").replace(
        "[budget]\n", "[budget]\nmax_seconds = inf\n")
    with pytest.raises(ConfigError, match=r"\[budget\] max_seconds"):
        parse_config(text)
    assert parse_config(text.replace("= inf", "= 0.0")).max_seconds == 0.0


def test_run_base_only(tmp_path):
    cfg = parse_config(SMALL_STAGGER.format(strategies="Base"))
    out = str(tmp_path / "out")
    reports = run_experiment(cfg, out)
    assert len(reports) == 1
    table = pathlib.Path(out, "report_Base.tsv").read_text()
    rows = [l for l in table.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "batch\tmetric\tdrift\tadapted"
    assert len(rows) == 1 + 4  # header + 4 test batches
    assert "# kind = stagger" in table  # embedded normalized config


def test_comparison_ranks_are_midranks(tmp_path):
    cfg = parse_config(SMALL_STAGGER.format(
        strategies="Base, Replacement, WU-all, WU-latest, Add-New"))
    out = str(tmp_path / "out")
    run_experiment(cfg, out)
    lines = [l for l in pathlib.Path(out, "comparison.tsv").read_text().splitlines()
             if l and not l.startswith("#")]
    assert lines[0] == "strategy\tmean_accuracy\trank"
    assert len(lines) == 6
    ranks = [float(l.split("\t")[2]) for l in lines[1:]]
    assert sum(ranks) == pytest.approx(sum(range(1, 6)))  # permutation incl. midranks


def test_rerun_is_byte_identical(tmp_path):
    cfg_path = config_file(tmp_path, SMALL_STAGGER.format(strategies="Base, Replacement"))
    assert main(["run", cfg_path, "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["run", cfg_path, "--out", str(tmp_path / "b")]) == EXIT_OK
    for name in ("report_Base.tsv", "report_Replacement.tsv", "comparison.tsv",
                 "config.normalized.txt"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_seed_override_lands_in_provenance(tmp_path):
    cfg_path = config_file(tmp_path, SMALL_STAGGER.format(strategies="Base"))
    out = tmp_path / "o"
    assert main(["run", cfg_path, "--seed", "99", "--out", str(out)]) == EXIT_OK
    assert "seed = 99" in (out / "config.normalized.txt").read_text()


def test_report_deltas_two_strategies(tmp_path):
    cfg = parse_config(SMALL_STAGGER.format(strategies="Base, Replacement"))
    out = str(tmp_path / "out")
    run_experiment(cfg, out)
    table = render_deltas(out)
    lines = table.strip().splitlines()
    assert lines[0] == "batch\tReplacement"
    assert len(lines) == 1 + 4
    assert all(len(l.split("\t")) == 2 for l in lines)


def test_report_base_vs_base_is_zero(tmp_path):
    cfg = parse_config(SMALL_STAGGER.format(strategies="Base"))
    out = str(tmp_path / "out")
    run_experiment(cfg, out)
    table = render_deltas(out)
    lines = table.strip().splitlines()[1:]
    assert all(float(l.split("\t")[1]) == 0.0 for l in lines)


def test_report_missing_base_errors(tmp_path):
    cfg = parse_config(SMALL_STAGGER.format(strategies="Replacement"))
    out = str(tmp_path / "out")
    run_experiment(cfg, out)
    assert main(["report", out]) == EXIT_DATA


def test_exit_codes(tmp_path):
    assert main(["run", str(tmp_path / "missing.conf")]) == EXIT_CONFIG
    bad = config_file(tmp_path, "[dataset]\nkind = nothing\n", "bad.conf")
    assert main(["run", bad]) == EXIT_CONFIG
    gone = config_file(
        tmp_path,
        "[dataset]\nkind = csv\npath = /nonexistent.csv\nlabel_column = y\n",
        "gone.conf",
    )
    assert main(["run", gone]) == EXIT_DATA
    small = SMALL_STAGGER.format(strategies="Base")
    for old, bad in [
        ("max_candidates = 4", "max_candidates = 0"),
        ("max_candidates = 4", "max_candidates = 4\nvalidation_fraction = 1.5"),
        ("[ensemble]", "[detector]\nwindow = 0\n[ensemble]"),
        ("rounds = 10", "rounds = 0"),
        ("drift_points = 1000", "drift_points = 5000"),
    ]:
        # the run's own objects reject these before any work starts
        path = config_file(tmp_path, small.replace(old, bad), "badvalue.conf")
        assert main(["run", path, "--out", str(tmp_path / "never")]) == EXIT_CONFIG, bad
        assert not (tmp_path / "never").exists()


def test_other_failures_exit_with_runtime_code(tmp_path, monkeypatch, capsys):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_experiment", boom)
    monkeypatch.setattr(cli, "render_deltas", boom)
    conf = config_file(tmp_path, SMALL_STAGGER.format(strategies="Base"))
    assert main(["run", conf, "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
    assert main(["report", str(tmp_path / "out")]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime failure: boom\n" * 2


RUN_LOG_LINE = re.compile(
    r"(?P<arm>[\w-]+): (?P<total>[\d.]+)s total, phase_s=(?P<phases>\{.*?\}), "
    r"drift_events=\[.*\], adapt_events=(?P<adapts>\[.*\])"
)


def test_run_log_lists_seconds_per_phase(tmp_path):
    cfg = parse_config(SMALL_STAGGER.format(strategies="Base, Replacement"))
    out = tmp_path / "out"
    run_experiment(cfg, str(out))
    adapted = {}
    for line in (out / "run_log.txt").read_text().splitlines():
        m = RUN_LOG_LINE.fullmatch(line)
        phases = ast.literal_eval(m["phases"])
        adapted[m["arm"]] = bool(ast.literal_eval(m["adapts"]))
        assert list(phases) == ["search", "predict", "score", "reveal", "adapt", "store"]
        assert all(sec >= 0.0 for sec in phases.values())
        assert (phases["adapt"] > 0.0) == adapted[m["arm"]], line
        # the phases split the arm's time; the total is printed to 0.1 s and
        # each phase to 0.001 s
        assert sum(phases.values()) <= float(m["total"]) + 0.05 + 0.0005 * len(phases)
    assert adapted == {"Base": False, "Replacement": True}


def test_normalized_auc_on_three_classes_is_a_data_error(tmp_path):
    rng = np.random.default_rng(0)
    rows = ["f1,y"] + [f"{rng.normal()},{c}" for c in rng.integers(0, 3, 300)]
    csv_path = tmp_path / "three.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    conf = config_file(
        tmp_path,
        f"[dataset]\nkind = csv\npath = {csv_path}\nlabel_column = y\n\n"
        "[run]\nbatch_size = 100\nmetric = normalized_auc\n",
        "three.conf",
    )
    assert main(["run", conf, "--out", str(tmp_path / "three_out")]) == EXIT_DATA


def test_csv_dataset_end_to_end(tmp_path):
    rng = np.random.default_rng(0)
    rows = ["f1,f2,y"]
    for _ in range(300):
        x1, x2 = rng.normal(), rng.normal()
        rows.append(f"{x1},{x2},{int(x1 > 0)}")
    csv_path = tmp_path / "toy.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    conf = config_file(
        tmp_path,
        f"""
[dataset]
kind = csv
path = {csv_path}
label_column = y

[run]
batch_size = 100
strategies = Base
metric = accuracy
seed = 1

[budget]
max_candidates = 3
""",
        "csv.conf",
    )
    out = tmp_path / "csv_out"
    assert main(["run", conf, "--out", str(out)]) == EXIT_OK
    assert (out / "report_Base.tsv").exists()


def test_defaults_cover_detector_and_ensemble():
    cfg = parse_config("[dataset]\nkind = stagger\n")
    assert cfg.detector_window == 25
    assert cfg.detector_delta == 1e-7
    assert cfg.ensemble_rounds == 50
    assert cfg.strategies == (Strategy.BASE,)


def test_a_batch_size_covering_the_stream_is_a_data_error(tmp_path):
    # the first batch is the whole stream: it trains, and no batch is tested
    rng = np.random.default_rng(0)
    rows = ["f1,y"] + [f"{x},{int(x > 0)}" for x in rng.normal(size=500)]
    csv_path = tmp_path / "short.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    conf = config_file(
        tmp_path,
        f"[dataset]\nkind = csv\npath = {csv_path}\nlabel_column = y\n\n[run]\nbatch_size = 1000\n",
        "short.conf",
    )
    out = tmp_path / "short_out"
    assert main(["run", conf, "--out", str(out)]) == EXIT_DATA
    assert not out.exists()
