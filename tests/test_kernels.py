"""The compiled kernels' build, cache and calls (``driftml.kernels``)."""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from driftml import kernels
from driftml.classifiers import LogisticSgdClassifier

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def sgd_case():
    X, y = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), np.array([0, 1, 1])
    args = [X, y, 2, 32, 2, 0.1, 0.0, np.random.default_rng(0)]
    return kernels.sgd_fit, args, {(0,): 0, (1,): 0}


def knn_case():
    ref_X, xb = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]), np.array([[0.1, 0.0], [0.9, 0.1]])
    outs = [np.full((4, 2), 9.0), np.full((4, 2), 9.0)]
    args = [(2.0 * xb) @ ref_X.T, np.square(xb).sum(axis=1), np.square(ref_X).sum(axis=1),
            np.array([0, 1, 1]), np.array([1, 3]), outs, 2]
    return kernels.knn_votes, args, {(0,): 0, (1,): 0, (2,): 0, (3,): 0, (4,): 0, (5, 0): 0,
                                     (5, 1): 0}


def select_case():
    planes = np.array([[[0.9, 0.2, 0.6], [0.1, 0.8, 0.4]], [[0.5] * 3, [0.5] * 3]])
    args = [planes, np.array([0, 1, 1]), np.array([2, 1, 1]), False, 5]
    return kernels.select_rounds, args, {(0,): 2, (1,): 0, (2,): 0}


def tree_case():
    X = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
    counts = np.array([[2.0, 0.0, 2.0], [0.0, 1.0, 1.0], [2.0, 0.0, 2.0], [0.0, 3.0, 3.0]])
    xt = np.ascontiguousarray(X.T)
    args = [xt, counts, np.array([[3, 1, 0]]), xt.argsort(axis=1, kind="stable")[None], 0,
            np.array([[0, 0, 0, 4, 7, 7]]), counts.sum(axis=0)[None], np.zeros(2), 2]
    # any size of the proportions' buffer passes: the kernel takes it as its cap
    return kernels.tree_level, args, {(0,): 0, (1,): 0, (2,): 0, (3,): 0, (5,): 0, (6,): 0,
                                      (7,): None}


def arrays(args, sizes):
    """Each array argument of a case by its place, with its sized axis."""
    return {where: (args[where[0]] if len(where) == 1 else args[where[0]][where[1]], axis)
            for where, axis in sizes.items()}


def replaced(args, where, bad):
    args = [list(a) if isinstance(a, list) else a for a in args]
    if len(where) == 1:
        args[where[0]] = bad
    else:
        args[where[0]][where[1]] = bad
    return args


BAD = {
    "dtype": lambda a, axis: a.astype(np.float32 if a.dtype.kind == "f" else np.int32),
    "order": lambda a, axis: np.repeat(a, 2, axis=-1)[..., ::2],
    "size": lambda a, axis: (None if axis is None else
                             np.concatenate([a, np.take(a, [0], axis=axis)], axis=axis)),
}


@pytest.mark.parametrize("variant", sorted(BAD))
@pytest.mark.parametrize("case", [sgd_case, knn_case, select_case, tree_case],
                         ids=["sgd_fit", "knn_votes", "select_rounds", "tree_level"])
def test_each_kernel_rejects_a_wrong_array_before_the_call(case, variant):
    """Every array argument of every kernel function, given a wrong dtype,
    a copy that is not C-ordered or one size too many where another
    argument fixes the size, raises ``ValueError`` and no array (nor the
    generator a logistic fit draws from) changes."""
    call, args, sizes = case()
    state = lambda: ([a.tobytes() for a, _ in arrays(args, sizes).values()],  # noqa: E731
                     [a.bit_generator.state for a in args if isinstance(a, np.random.Generator)])
    before = state()
    for where, (a, axis) in arrays(args, sizes).items():
        bad = BAD[variant](a, axis)
        if bad is None:
            continue
        assert bad.tobytes() != a.tobytes() or not bad.flags.c_contiguous
        with pytest.raises(ValueError):
            call(*replaced(args, where, bad))
        assert state() == before
    call(*args)
    assert state() != before or call is kernels.select_rounds


def test_the_kernel_functions_give_what_their_cases_ask():
    W, b = kernels.sgd_fit(*sgd_case()[1])
    assert W.shape == (2, 2) and b.shape == (2,) and np.isfinite(W).all()
    args = knn_case()[1]
    kernels.knn_votes(*args)
    for out, k in zip(args[5], (1, 3)):
        assert (out[:2] == 9.0).all() and np.allclose(out[2:].sum(axis=1), 1.0)
        assert np.all(out[2:] * k == np.round(out[2:] * k))
    trace, scores = kernels.select_rounds(*select_case()[1])
    assert trace.tolist() == [0] * 5 and scores.tolist() == [0.75] * 5  # ties go to member 0
    args = tree_case()[1]
    found, threshold, child, child_total, props = kernels.tree_level(*args)
    assert found == 1 and props is args[7] and args[5][0, 4] == 0 and threshold[0] == 2.5
    assert child[:, 2:4].tolist() == [[0, 3], [3, 4]] and child_total.tolist() == [
        [4.0, 1.0, 5.0], [0.0, 3.0, 3.0]]


def test_knn_votes_refuses_labels_ks_and_rows_outside_their_ranges():
    for where, bad in [(3, np.array([0, 2, 1])), (4, np.array([1, 4])), (4, np.array([-1, 1])),
                       (6, 3), (6, -1)]:
        args = knn_case()[1]
        with pytest.raises(ValueError):
            kernels.knn_votes(*replaced(args, (where,), bad))
        assert all((out == 9.0).all() for out in args[5])


def test_importing_the_package_loads_no_build_module():
    """The build's modules are imported at the first build or load, not with
    the package: ``hashlib`` is most of a warm load's time."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, driftml; print(sorted({'hashlib', 'subprocess'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True)
    assert done.stdout == "[]\n", done.stderr


def fit_in_a_fresh_process(cache, X, y):
    """A process that fits a logistic model with ``cache`` as
    ``XDG_CACHE_HOME`` and prints its weights' bytes as hex."""
    script = ("import sys, numpy as np; from driftml.classifiers import LogisticSgdClassifier; "
              "X, y = np.load(sys.argv[1]), np.load(sys.argv[2]); "
              "m = LogisticSgdClassifier(3, 0.1, 1e-4, 5).fit(X, y, np.random.default_rng(7)); "
              "print(m.W_.tobytes().hex(), m.b_.tobytes().hex())")
    env = dict(os.environ, XDG_CACHE_HOME=str(cache),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-c", script, str(X), str(y)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_two_processes_building_the_kernel_at_once_fit_the_same_bytes(tmp_path):
    rng = np.random.default_rng(2)
    X, y = rng.normal(size=(100, 6)), rng.integers(0, 3, 100)
    np.save(tmp_path / "X.npy", X)
    np.save(tmp_path / "y.npy", y)
    cache = tmp_path / "cache"
    procs = [fit_in_a_fresh_process(cache, tmp_path / "X.npy", tmp_path / "y.npy")
             for _ in range(2)]
    outs = [proc.communicate(timeout=120) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], [err for _, err in outs]
    model = LogisticSgdClassifier(3, 0.1, 1e-4, 5).fit(X, y, np.random.default_rng(7))
    here = f"{model.W_.tobytes().hex()} {model.b_.tobytes().hex()}\n"
    assert [out for out, _ in outs] == [here, here]
    assert [p.suffix for p in (cache / "driftml").iterdir()] == [".so"]  # no build left over


def test_a_load_from_a_warm_cache_starts_no_process(monkeypatch, tmp_path):
    """Only a build runs ``cc``: the cache key reads the compiler's file."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(kernels, "_library", None)
    kernels._lib()
    monkeypatch.setattr(kernels, "_library", None)

    def no_process(*args, **kwargs):
        raise AssertionError(f"started a process: {args}")

    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    assert kernels._lib() is not None
    assert len(list((tmp_path / "driftml").iterdir())) == 1


def test_the_kernels_compile_without_warnings(tmp_path):
    """``_kernels.c`` builds with the production flags and ``-Wall -Wextra
    -Werror``."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no cc on PATH")
    source = os.path.join(SRC, "driftml", "_kernels.c")
    done = subprocess.run([cc, *kernels.FLAGS, "-Wall", "-Wextra", "-Werror",
                           "-o", str(tmp_path / "kernels.so"), source, "-lm"],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
