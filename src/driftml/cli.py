"""Experiment runner and report renderer.

Config files are plain ``[section]`` / ``key = value`` text (see the bundled
files under ``configs/``). Lists are comma separated, ``#`` starts a
comment. The normalized form of the parsed config is embedded into every
report for provenance, and re-serializing a parsed config always yields that
normalized form.

Exit codes: 0 ok, 1 config error, 2 data error, 3 runtime failure.

Grammar, by example::

    [dataset]
    kind = stagger              # stagger | csv
    n_instances = 70000
    drift_points = 17500, 35000, 52500
    concepts = 1, 1i, 2, 3      # concept id, trailing "i" inverts it
    noise_rate = 0.0
    seed = 42
    # csv instead: kind = csv, path = ..., label_column = ...

    [run]
    batch_size = 1000
    strategies = Base, Replacement, WU-all, WU-latest, Add-New
    metric = accuracy           # accuracy | normalized_auc
    seed = 42

    [budget]
    max_candidates = 16
    validation_fraction = 0.33
    # max_seconds = 600         # optional finite wall-clock cap (non-deterministic)

    [detector]
    window = 25
    delta = 1e-7

    [ensemble]
    rounds = 50
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional

from .data import Batch, DataError, load_csv, split_stream
from .drift import DEFAULT_DELTA, DEFAULT_WINDOW, FhddmState
from .lifelong import RunReport, Strategy, run_lifelong
from .metrics import METRICS, midranks
from .search import SearchBudget, SearchError
from .stagger import StaggerConfig, generate_stagger

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    """Malformed experiment configuration (message carries the line)."""


@dataclass
class ExperimentConfig:
    dataset_kind: str = "stagger"
    csv_path: str = ""
    label_column: str = ""
    n_instances: int = 70_000
    drift_points: tuple[int, ...] = (17_500, 35_000, 52_500)
    concepts: tuple[tuple[int, bool], ...] = ((1, False), (1, True), (2, False), (3, False))
    noise_rate: float = 0.0
    dataset_seed: int = 42
    batch_size: int = 1_000
    strategies: tuple[Strategy, ...] = (Strategy.BASE,)
    metric: str = "accuracy"
    run_seed: int = 42
    max_candidates: int = 16
    validation_fraction: float = 0.33
    max_seconds: Optional[float] = None
    detector_window: int = DEFAULT_WINDOW
    detector_delta: float = DEFAULT_DELTA
    ensemble_rounds: int = 50

    def normalized_text(self) -> str:
        sections: dict[str, list[str]] = {}
        for section, key, name, _, show, kind in _KEYS:
            value = getattr(self, name)
            if value is not None and kind in (None, self.dataset_kind):
                sections.setdefault(section, [f"[{section}]"]).append(f"{key} = {show(value)}")
        return "\n\n".join("\n".join(lines) for lines in sections.values()) + "\n"


def _parse_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key = key.strip()
        if key in sections[current]:
            first = sections[current][key][1]
            raise ConfigError(f"line {lineno}: key {key!r} in [{current}] repeats line {first}")
        sections[current][key] = (value.strip(), lineno)
    return sections


def _take(sections, section, key, convert, default, required):
    """Convert and remove one key; ``parse_config`` rejects what is left."""
    entry = sections.get(section, {}).pop(key, None)
    if entry is None:
        if required:
            raise ConfigError(f"missing required key {key!r} in [{section}]")
        return default
    value, lineno = entry
    try:
        return convert(value)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc


def _csv_list(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def _parse_concepts(value: str) -> tuple[tuple[int, bool], ...]:
    out = []
    for token in _csv_list(value):
        inverted = token.endswith("i")
        cid = int(token[:-1] if inverted else token)
        out.append((cid, inverted))
    return tuple(out)


def _one_of(choices):
    def parse(value: str) -> str:
        if value not in choices:
            raise ValueError(f"must be one of {choices}, got {value!r}")
        return value
    return parse


def _joined(show_item):
    return lambda values: ", ".join(show_item(v) for v in values)


# One row per config key, in normalized-text order: (section, key,
# ExperimentConfig field, parse, print, the dataset kind the key belongs to
# or None for every kind).
_KEYS = (
    ("dataset", "kind", "dataset_kind", _one_of(("stagger", "csv")), str, None),
    ("dataset", "path", "csv_path", str, str, "csv"),
    ("dataset", "label_column", "label_column", str, str, "csv"),
    ("dataset", "n_instances", "n_instances", int, str, "stagger"),
    ("dataset", "drift_points", "drift_points",
     lambda v: tuple(int(x) for x in _csv_list(v)), _joined(str), "stagger"),
    ("dataset", "concepts", "concepts", _parse_concepts,
     _joined(lambda c: f"{c[0]}i" if c[1] else str(c[0])), "stagger"),
    ("dataset", "noise_rate", "noise_rate", float, str, "stagger"),
    ("dataset", "seed", "dataset_seed", int, str, "stagger"),
    ("run", "batch_size", "batch_size", int, str, None),
    ("run", "strategies", "strategies",
     lambda v: tuple(Strategy.parse(s) for s in _csv_list(v)), _joined(lambda s: s.value), None),
    ("run", "metric", "metric", _one_of(METRICS), str, None),
    ("run", "seed", "run_seed", int, str, None),
    ("budget", "max_candidates", "max_candidates", int, str, None),
    ("budget", "validation_fraction", "validation_fraction", float, str, None),
    ("budget", "max_seconds", "max_seconds", float, str, None),
    ("detector", "window", "detector_window", int, str, None),
    ("detector", "delta", "detector_delta", float, str, None),
    ("ensemble", "rounds", "ensemble_rounds", int, str, None),
)


def _search_budget(cfg: ExperimentConfig) -> SearchBudget:
    return SearchBudget(cfg.max_candidates, cfg.max_seconds, cfg.validation_fraction, cfg.run_seed)


def _detector(cfg: ExperimentConfig) -> FhddmState:
    return FhddmState(cfg.detector_window, cfg.detector_delta)


def _stagger(cfg: ExperimentConfig) -> StaggerConfig:
    return StaggerConfig(cfg.n_instances, cfg.drift_points, cfg.concepts, cfg.noise_rate,
                         cfg.dataset_seed)


def parse_config(text: str) -> ExperimentConfig:
    sections = _parse_sections(text)
    unknown = set(sections) - {section for section, *_ in _KEYS}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    cfg = ExperimentConfig()
    for section, key, name, parse, _, kind in _KEYS:
        if kind in (None, cfg.dataset_kind):
            default = getattr(cfg, name)
            required = key == "kind" or kind == "csv"
            setattr(cfg, name, _take(sections, section, key, parse, default, required))

    for section, entries in sections.items():
        for key, (_, lineno) in entries.items():
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
    if cfg.batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if not cfg.strategies:
        raise ConfigError("[run] strategies names no strategy")
    if len(set(cfg.strategies)) != len(cfg.strategies):
        raise ConfigError("duplicate strategies configured")
    if cfg.ensemble_rounds < 1:
        raise ConfigError("[ensemble] rounds must be >= 1")
    checks = [("budget", _search_budget), ("detector", _detector)]
    if cfg.dataset_kind == "stagger":
        checks.append(("dataset", _stagger))
    for section, build in checks:  # the run's own objects check the rest
        try:
            build(cfg)
        except (SearchError, DataError, ValueError) as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
    return cfg


def load_dataset(cfg: ExperimentConfig) -> Batch:
    if cfg.dataset_kind == "csv":
        _, batch = load_csv(cfg.csv_path, cfg.label_column)
        return batch
    return generate_stagger(_stagger(cfg))


def _comment_block(text: str) -> str:
    return "".join(f"# {line}\n" for line in text.rstrip("\n").split("\n"))


def _phase_seconds(started: float, marks: list, returned: float) -> dict[str, float]:
    """Wall seconds per phase from ``run_lifelong``'s ``phase_hook`` marks:
    ``search`` lasts from the call to the first mark, each marked phase
    until the next mark, the last one until the return."""
    seconds = dict.fromkeys(("search", "predict", "score", "reveal", "adapt", "store"), 0.0)
    times = [started] + [t for _, t in marks] + [returned]
    for phase, t, t_next in zip(["search"] + [p for p, _ in marks], times, times[1:]):
        seconds[phase] += t_next - t
    return seconds


def run_experiment(cfg: ExperimentConfig, out_dir: str) -> list[RunReport]:
    """Execute every configured strategy and write the report files."""
    data = load_dataset(cfg)
    batches = split_stream(data, cfg.batch_size)
    if len(batches) < 2:  # the first batch trains; nothing would be tested
        raise DataError(
            f"batch_size {cfg.batch_size} leaves no test batch in {len(data)} instances"
        )
    train, test = batches[0], batches[1:]

    budget, detector = _search_budget(cfg), _detector(cfg)

    os.makedirs(out_dir, exist_ok=True)
    normalized = cfg.normalized_text()
    with open(os.path.join(out_dir, "config.normalized.txt"), "w") as fh:
        fh.write(normalized)

    reports = []
    log_lines = []
    for strategy in cfg.strategies:
        marks = []
        started = time.perf_counter()
        report = run_lifelong(
            train, test, strategy, cfg.metric, budget, detector,
            ensemble_rounds=cfg.ensemble_rounds,
            phase_hook=lambda phase, t: marks.append((phase, time.perf_counter())),
        )
        returned = time.perf_counter()
        seconds = _phase_seconds(started, marks, returned)
        reports.append(report)
        path = os.path.join(out_dir, f"report_{strategy.value}.tsv")
        with open(path, "w") as fh:
            fh.write(_comment_block(normalized))
            fh.write(f"# strategy = {strategy.value}\n")
            mean = "nan" if math.isnan(report.mean_metric) else f"{report.mean_metric:.6f}"
            fh.write(f"# mean_{report.metric} = {mean}\n")
            fh.write("\n".join(report.table_lines()) + "\n")
        log_lines.append(
            f"{strategy.value}: {returned - started:.1f}s total, "
            f"phase_s={ {phase: round(sec, 3) for phase, sec in seconds.items()} }, "
            f"drift_events={list(report.drift_events)}, "
            f"adapt_events={list(report.adapt_events)}"
        )

    means = [r.mean_metric for r in reports]
    ranks = midranks([math.inf if math.isnan(m) else -m for m in means])  # 1 = best
    with open(os.path.join(out_dir, "comparison.tsv"), "w") as fh:
        fh.write(_comment_block(normalized))
        fh.write(f"strategy\tmean_{cfg.metric}\trank\n")
        for report, rank in zip(reports, ranks):
            mean = "nan" if math.isnan(report.mean_metric) else f"{report.mean_metric:.6f}"
            fh.write(f"{report.strategy}\t{mean}\t{rank:.1f}\n")

    # wall-clock details are real measurements: they live outside the
    # deterministic tables
    with open(os.path.join(out_dir, "run_log.txt"), "w") as fh:
        fh.write("\n".join(log_lines) + "\n")
    return reports


def read_report_table(path: str) -> list[float]:
    per_batch = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("batch\t"):
                continue
            cells = line.rstrip("\n").split("\t")
            if len(cells) >= 2:
                per_batch.append(float(cells[1]))
    return per_batch


def render_deltas(report_dir: str) -> str:
    """Per-batch improvement over the Base arm as a plottable table."""
    base_path = os.path.join(report_dir, "report_Base.tsv")
    if not os.path.exists(base_path):
        raise DataError(f"missing Base report: {base_path}")
    base = read_report_table(base_path)

    others = sorted(
        name[len("report_") : -len(".tsv")]
        for name in os.listdir(report_dir)
        if name.startswith("report_") and name.endswith(".tsv") and name != "report_Base.tsv"
    )
    if not others:  # Base against itself: an all-zero series
        others = ["Base"]
    columns = {}
    for name in others:
        series = read_report_table(os.path.join(report_dir, f"report_{name}.tsv"))
        if len(series) != len(base):
            raise DataError(f"report {name} has {len(series)} rows, Base has {len(base)}")
        columns[name] = [s - b for s, b in zip(series, base)]

    lines = ["batch\t" + "\t".join(others)]
    for i in range(len(base)):
        row = [str(i)] + [f"{columns[name][i]:.6f}" for name in others]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def cmd_run(config_path: str, seed: Optional[int], out_dir: Optional[str]) -> int:
    try:
        with open(config_path) as fh:
            cfg = parse_config(fh.read())
        if seed is not None:
            cfg.run_seed = seed
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = out_dir or os.path.splitext(os.path.basename(config_path))[0] + "_out"
    reports = run_experiment(cfg, out)
    for report in reports:
        mean = "nan" if math.isnan(report.mean_metric) else f"{report.mean_metric:.4f}"
        print(f"{report.strategy}: mean {report.metric} = {mean} "
              f"({len(report.drift_events)} drift events)")
    print(f"reports written to {out}/")
    return EXIT_OK


def cmd_report(report_dir: str) -> int:
    table = render_deltas(report_dir)
    out_path = os.path.join(report_dir, "deltas_vs_base.tsv")
    with open(out_path, "w") as fh:
        fh.write(table)
    print(table, end="")
    print(f"# written to {out_path}", file=sys.stderr)
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="driftml",
        description="Drift-aware AutoML experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a strategy comparison from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="override [run] seed")
    p_run.add_argument("--out", default=None, help="output directory")
    p_rep = sub.add_parser("report", help="render per-batch deltas against the Base arm")
    p_rep.add_argument("report_dir")
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.seed, args.out)
        return cmd_report(args.report_dir)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
