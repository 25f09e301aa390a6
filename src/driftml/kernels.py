"""The one module that knows the C ABI of ``_kernels.c``.

``_lib`` builds the library with ``cc`` and ``FLAGS`` at its first use and
caches it in ``$XDG_CACHE_HOME/driftml`` (``~/.cache/driftml`` when unset)
under the sha256 of the source, the flags and the ``cc`` on ``PATH`` (its
resolved path, size and mtime), so a warm load starts no process. Each
kernel's function checks its arrays' dtype, shape and C order
(``ValueError`` before the call), reads the kernel's sizes from those
shapes and allocates its scratch and outputs.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
F8, I8 = np.dtype(np.float64), np.dtype(np.int64)
_library = None


class KernelBuildError(RuntimeError):
    """The kernels of ``_kernels.c`` could not be compiled or loaded."""


def _lib():
    """The library, built or loaded at the first call, which imports the build's modules."""
    global _library
    if _library is None:
        import hashlib
        import shutil

        source = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
        cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"),
                             "driftml")
        cc = shutil.which("cc")
        try:
            if cc is None:
                raise FileNotFoundError("no cc on PATH")
            compiler = os.path.realpath(cc)
            found = os.stat(compiler)
            with open(source, "rb") as fh:
                key = hashlib.sha256(fh.read() + repr(
                    (FLAGS, compiler, found.st_size, found.st_mtime_ns)).encode())
            library = os.path.join(cache, f"_kernels-{key.hexdigest()[:24]}.so")
            if not os.path.exists(library):
                _build(cc, source, library)
            lib = ctypes.CDLL(library)
        except OSError as exc:
            raise KernelBuildError(f"cannot build {source} with cc: {exc}") from exc
        at, count, real = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
        lib.sgd_fit.restype = lib.knn_votes.restype = None
        lib.select_rounds.restype = lib.tree_level.restype = count
        lib.sgd_fit.argtypes = [at] * 2 + [count] * 5 + [real] * 2 + [at] * 7
        lib.knn_votes.argtypes = [at] * 4 + [count] * 3 + [at] * 2 + [count] * 2 + [at] * 2
        lib.select_rounds.argtypes = [at] * 3 + [count] * 5 + [at] * 4
        lib.tree_level.argtypes = ([at] * 2 + [count] * 3 + [at] + [count] * 2 + [at] * 5
                                   + [count] * 3 + [at] * 3)
        _library = lib
    return _library


def _build(cc: str, source: str, library: str) -> None:
    """Compile ``source`` beside ``library`` and rename it into place, so
    processes that build at once each load a whole library."""
    import subprocess
    import tempfile

    os.makedirs(os.path.dirname(library), exist_ok=True)
    fd, built = tempfile.mkstemp(suffix=".so", dir=os.path.dirname(library))
    os.close(fd)
    try:
        done = subprocess.run([cc, *FLAGS, "-o", built, source, "-lm"], capture_output=True)
        if done.returncode:
            raise KernelBuildError(f"cannot build {source} with cc: "
                                   f"{done.stderr.decode(errors='replace')}".strip())
        os.replace(built, library)
    finally:
        if os.path.exists(built):
            os.unlink(built)


def _at(a, dtype: np.dtype, *shape: int) -> int:
    """The address of ``a``, a C-ordered ``dtype`` ndarray of ``shape``
    (-1 takes any size), or ``ValueError``."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous
            and a.ndim == len(shape) and all(w in (-1, g) for w, g in zip(shape, a.shape))):
        raise ValueError(f"a kernel takes a C-ordered {dtype} array of shape {shape} (-1: any), "
                         f"not {getattr(a, 'dtype', type(a))} {getattr(a, 'shape', '')}")
    return a.ctypes.data


def sgd_fit(X: np.ndarray, y: np.ndarray, n_classes: int, minibatch: int, epochs: int,
            rate: float, l2: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``(W, b)`` of ``sgd_fit`` on ``X`` and the class indices ``y``, from ``rng``'s draws."""
    x_at = _at(X, F8, -1, -1)
    (n, d), m = X.shape, min(minibatch, X.shape[0])
    y_at = _at(y, I8, n)
    if n and not 0 <= y.min() <= y.max() < n_classes:
        raise ValueError("logistic labels must index the classes")
    W, b = np.zeros((d, n_classes)), np.zeros(n_classes)
    rows, scratch = np.empty(n, I8), np.empty(m * (d + n_classes))
    draw = rng.bit_generator.ctypes
    with rng.bit_generator.lock:
        _lib().sgd_fit(x_at, y_at, n, d, n_classes, m, epochs, rate, l2, draw.state_address,
                       draw.next_uint32, draw.next_uint64, W.ctypes.data, b.ctypes.data,
                       rows.ctypes.data, scratch.ctypes.data)
    return W, b


def knn_votes(prod: np.ndarray, sq: np.ndarray, ref_sq: np.ndarray, ref_y: np.ndarray,
              k: np.ndarray, outs: list, at: int) -> None:
    """Write ``knn_votes`` of ``prod``'s rows into rows ``at`` onward of each of ``outs``."""
    prod_at, first = _at(prod, F8, -1, -1), _at(outs[0], F8, -1, -1)
    (rows, n_ref), (n, n_classes) = prod.shape, outs[0].shape
    out_at = np.array([first] + [_at(out, F8, n, n_classes) for out in outs[1:]], np.uintp)
    sq_at, ref_sq_at, ref_y_at = _at(sq, F8, rows), _at(ref_sq, F8, n_ref), _at(ref_y, I8, n_ref)
    k_at = _at(k, I8, len(outs))
    if not (0 <= k.min() <= k.max() <= n_ref and 0 <= at <= n - rows
            and (not n_ref or 0 <= ref_y.min() <= ref_y.max() < n_classes)):
        raise ValueError(f"k-NN takes reference labels that index the {n_classes} classes, "
                         f"0 <= k <= {n_ref} and rows {at}..{at + rows} of {n}")
    near, labels = np.empty(k.max()), np.empty(k.max() + n_classes, I8)
    _lib().knn_votes(prod_at, sq_at, ref_sq_at, ref_y_at, rows, n_ref, n_classes, k_at,
                     out_at.ctypes.data, len(outs), at, near.ctypes.data, labels.ctypes.data)


def select_rounds(planes: np.ndarray, y: np.ndarray, weight: np.ndarray, auc: bool,
                  rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """The pick and the score of each round ``select_rounds`` runs on ``planes``."""
    planes_at = _at(planes, F8, -1, -1, -1)
    n_members, n_classes, n_columns = planes.shape
    y_at, weight_at = _at(y, I8, n_columns), _at(weight, I8, n_columns)
    if auc and n_classes != 2:
        raise ValueError("normalized_auc needs binary class probabilities")
    running = np.zeros((n_classes, n_columns))
    trace, scores = np.empty(rounds, I8), np.empty(rounds)
    scratch = np.empty(5 * n_columns if auc else n_members + 2 * n_columns, I8)
    ran = _lib().select_rounds(planes_at, y_at, weight_at, n_members, n_classes, n_columns, auc,
                               rounds, running.ctypes.data, trace.ctypes.data, scores.ctypes.data,
                               scratch.ctypes.data)
    return trace[:ran], scores[:ran]


def tree_level(xt: np.ndarray, counts: np.ndarray, rule: np.ndarray, order: np.ndarray,
               depth: int, node: np.ndarray, total: np.ndarray, props: np.ndarray,
               first_id: int) -> tuple:
    """One depth: ``(splits, threshold, child, child_total, props)``. Entropy's
    proportions are listed into ``props``, replaced by numpy's ``log2`` and
    read by the splitting call. A ``props`` too short for them is replaced by
    one twice the need, which is returned, so the next depths of a growth
    that keep it seldom list twice."""
    xt_at, rule_at, node_at = _at(xt, F8, -1, -1), _at(rule, I8, -1, 3), _at(node, I8, -1, 6)
    (d, n_pairs), n = xt.shape, len(node)
    counts_at = _at(counts, F8, n_pairs, -1)
    width = counts.shape[1]
    threshold, spare = np.empty(n), np.empty(n_pairs, I8)
    child, child_total = np.empty((2 * n, 6), I8), np.empty((2 * n, width))
    head = (xt_at, counts_at, n_pairs, d, width - 1, rule_at, depth, n, node_at,
            _at(total, F8, n, width), threshold.ctypes.data, _at(order, I8, len(rule), d, n_pairs))
    tail = (first_id, child.ctypes.data, child_total.ctypes.data, spare.ctypes.data)
    level, props_at = _lib().tree_level, _at(props, F8, -1)
    if rule[:, 2].any():
        need = level(*head, props_at, len(props), 1, *tail)
        if need > len(props):
            props = np.empty(2 * need)
            props_at = props.ctypes.data
            level(*head, props_at, len(props), 1, *tail)
        np.log2(props[:need], out=props[:need])
    return level(*head, props_at, len(props), 0, *tail), threshold, child, child_total, props
