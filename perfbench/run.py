"""driftml benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload stagger-refit --seed 1 --seconds 40 --trace 0

Run from the repository root. The run writes the workload's inputs under
``perfbench/.work/``, then starts one repetition after another, each in a
fresh interpreter (``child.py``) and one at a time, until the next one would
end after ``--seconds``. Every repetition processes the same inputs, so all
of them must give the same report digests. With ``--trace 0`` the run
prints the end-to-end metrics (medians over repetitions, or over the pooled
batches and adaptations, in calibrated seconds: see README.md, "Calibration");
with ``--trace 1`` it alternates untraced and
traced repetitions and prints the per-layer metrics of the traced ones. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

# (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("first_model_s", "s"),
    ("batch_p50_ms", "ms"),
    ("adapt_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)

# One BLAS thread on both sides of a comparison: the thread count changes
# timings and lets work run on a second core.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPETITIONS = 3
CHILD_TIMEOUT_S = 150
REFERENCE = os.path.join(HERE, "reference.json")


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def git_commit() -> str:
    """HEAD of the checkout, read without running git (a benchmark checkout
    need not be a repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> str:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = " ".join(f"{v}=1" for v in THREAD_VARS)
    return (
        f"env nproc={os.cpu_count()} python={sys.version.split()[0]} "
        f"numpy={numpy.__version__} blas={blas.get('name', '?')}-{blas.get('version', '?')} "
        f"{threads} commit={git_commit()}"
    )


def run_child(config: str, out: str, traced: bool, families: bool) -> tuple[dict | None, str]:
    """One repetition; returns (result or None, error text)."""
    launched = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--config", config,
           "--out", out, "--launched", repr(launched)]
    if traced:
        cmd.append("--trace")
    if families:
        cmd.append("--families")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"repetition exceeded {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, proc.stderr.strip()[-2000:] or f"exit code {proc.returncode}"
    with open(out) as fh:
        return json.load(fh), ""


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least 10 of ``n`` samples beyond it."""
    if n < 20:
        return None
    return min(99, math.floor(100.0 * (1.0 - 10.0 / n)))


def same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def load_reference() -> dict:
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests as the reference for its seed")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "driftml", "lifelong.py")):
        print(f"error: no driftml sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    print(environment())
    work = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        config = workloads.prepare(args.workload, args.seed, work)
        children = measure(config, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(os.path.dirname(work))
    return summarize(args, children)


def measure(config: str, work: str, seconds: float, trace: bool) -> list[dict]:
    """Run repetitions until the next one would overrun ``seconds``."""
    children = []
    start = time.monotonic()
    while True:
        i = len(children)
        traced = trace and i % 2 == 1
        load_before = os.getloadavg()[0]
        t0 = time.monotonic()
        result, error = run_child(config, os.path.join(work, f"rep{i}.json"),
                                  traced, families=(i == 0))
        took = time.monotonic() - t0
        load_after = os.getloadavg()[0]
        children.append({"traced": traced, "result": result, "error": error, "took": took})
        state = (f"setup {result['setup_s']:.3f}s wall {wall(result, False):.3f}s "
                 f"calibration {'/'.join(f'{c:.3f}' for c in result['calibration_s'])}s "
                 f"failed candidates {result['candidates_failed']}") if result else "FAILED"
        print(f"rep {i}: traced={int(traced)} {state} took {took:.2f}s "
              f"loadavg {load_before:.2f}->{load_after:.2f}")
        if error:
            print(f"rep {i} error: {error}")
            break
        elapsed = time.monotonic() - start
        enough = len(children) >= (2 if trace else MIN_REPETITIONS)
        if enough and elapsed + took > seconds:
            break
    return children


def summarize(args, children: list[dict]) -> int:
    arms = workloads.WORKLOADS[args.workload]["strategies"]
    attempted = len(children) * len(arms)
    failed = 0
    digests = {arm: set() for arm in arms}
    means = {arm: set() for arm in arms}
    for c in children:
        result = c["result"]
        if result is None:
            failed += len(arms)
            continue
        for arm in result["arms"]:
            if arm["error"]:
                failed += 1
                print(f"arm {arm['arm']} failed: {arm['error']}")
            else:
                digests[arm["arm"]].add(arm["digest"])
                means[arm["arm"]].add(arm["mean_metric"])
    # A digest that differs between repetitions of one commit fails every
    # run of that arm, and so does one that differs from the recorded
    # reference for this workload and seed (unless this run re-records it).
    reference = {} if args.record else load_reference()
    reference = reference.get(args.workload, {}).get(str(args.seed), {})
    for arm in arms:
        runs = sum(1 for c in children if c["result"] for a in c["result"]["arms"]
                   if a["arm"] == arm and not a["error"])
        if len(digests[arm]) > 1:
            print(f"arm {arm}: {len(digests[arm])} different digests over repetitions")
            failed += runs
            continue
        if not digests[arm]:
            continue
        digest, mean = next(iter(digests[arm])), next(iter(means[arm]))
        ref = reference.get(arm)
        match = ref is not None and ref["digest"] == digest
        print(f"digest {arm} = {digest} "
              f"digest_match={'unrecorded' if ref is None else str(match).lower()} "
              f"mean_metric={mean!r}")
        if ref is not None and not (match and same_float(ref["mean_metric"], mean)):
            print(f"arm {arm}: report differs from reference.json (recorded mean_metric="
                  f"{ref['mean_metric']!r})")
            failed += runs

    untraced = [c["result"] for c in children if c["result"] and not c["traced"]]
    traced = [c["result"] for c in children if c["result"] and c["traced"]]
    if untraced and "families" in untraced[0]:
        print(f"initial ensemble families: {','.join(untraced[0]['families'])}")
    failed_frac = failed / attempted if attempted else 1.0
    print(f"failed_frac = {failed_frac} ({failed} of {attempted} arm runs)")

    if args.trace:
        metrics = layer_metrics(untraced, traced)
    else:
        metrics = end_to_end_metrics(untraced, arms)
    correct = failed == 0 and bool(metrics)
    if correct and args.record:
        record(args.workload, args.seed, digests, means)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def wall(result: dict, calibrated: bool = True) -> float:
    """All arms of a repetition: the sum of its ``run_lifelong`` calls."""
    return sum(a["arm_s"] * (a["scale"] if calibrated else 1.0) for a in result["arms"])


def _metric(name, unit, samples, what, p=None):
    """Print and return the median (or the ``p``-th percentile) of the
    calibrated samples; ``samples`` are (raw value, calibration scale)."""
    pick = statistics.median if p is None else (lambda v: percentile(v, p))
    value = pick([raw * scale for raw, scale in samples])
    raw = pick([raw for raw, _ in samples])
    stat = "median" if p is None else f"p{p:g}"
    print(f"metric {name} = {value:.6g} {unit} (raw {raw:.6g} {unit}; {stat} of "
          f"n={len(samples)} {what})")
    return value


def end_to_end_metrics(results: list[dict], arms) -> dict:
    if not results:
        return {}
    done = [a for r in results for a in r["arms"] if not a["error"]]
    batches = [(s * 1000.0, a["scale"]) for a in done for s in a["batch_s"]]
    adapts = [(s, a["scale"]) for a in done for s in a["adapt_s"]]
    out = {
        "setup_s": _metric("setup_s", "s", [(r["setup_s"], r["setup_scale"]) for r in results],
                           "repetitions"),
        "first_model_s": _metric("first_model_s", "s", [(a["first_model_s"], a["scale"]) for a in done],
                                 "arm runs"),
    }
    if batches:
        out["batch_p50_ms"] = _metric("batch_p50_ms", "ms", batches, "non-adapting batches")
        # Printed, not gated: a STAGGER run has too few batches for a tail
        # (README.md, "Why these gates"). The percentile follows from the
        # batches of the first repetitions only, so a faster commit that
        # fits more repetitions into the run reports the same percentile.
        first = sum(len(a["batch_s"]) for r in results[:MIN_REPETITIONS]
                    for a in r["arms"] if not a["error"])
        p = tail_percentile(first)
        if p is not None:
            _metric("batch_tail_ms", "ms", batches, "non-adapting batches", p)
    if adapts:
        out["adapt_p50_s"] = _metric("adapt_p50_s", "s", adapts, "adaptations")
    rss = statistics.median(r["peak_rss_mb"] for r in results)
    print(f"metric peak_rss_mb = {rss:.6g} MB (median of n={len(results)} repetitions)")
    out["peak_rss_mb"] = rss
    _metric("wall_s", "s", [(wall(r, False), wall(r) / wall(r, False)) for r in results],
            "repetitions")
    cpu = statistics.median(sum(a.get("cpu_s", 0.0) for a in r["arms"]) for r in results)
    print(f"metric cpu_s = {cpu:.6g} s (raw; median of n={len(results)} repetitions)")
    for arm in arms:
        samples = [(a["arm_s"], a["scale"]) for a in done if a["arm"] == arm]
        if samples:
            _metric(f"arm_s.{arm}", "s", samples, "repetitions")
    means = [a["mean_metric"] for a in done if not math.isnan(a["mean_metric"])]
    if means:
        print(f"metric metric_mean = {statistics.fmean(means)!r} (mean over arms, "
              f"deterministic)")
    missing = [name for name, _ in END_TO_END if name not in out]
    if missing:
        print(f"missing end-to-end metrics: {', '.join(missing)}")
        return {}
    return {name: (out[name], unit) for name, unit in END_TO_END}


def layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    if not untraced or not traced:
        return {}
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_frac":
            base = statistics.median(wall(r) for r in untraced)
            value = statistics.median(wall(r) for r in traced) / base - 1.0
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        out[name] = (value, unit)
        print(f"metric {name} = {value:.6g} {unit} (median of n={len(traced)} traced repetitions)")
    return out


def record(workload: str, seed: int, digests: dict, means: dict) -> None:
    reference = load_reference()
    reference.setdefault(workload, {})[str(seed)] = {
        arm: {"digest": next(iter(digests[arm])), "mean_metric": next(iter(means[arm]))}
        for arm in digests
    }
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
