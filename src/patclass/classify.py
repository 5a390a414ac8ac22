"""Linear maximum-margin classification on binary pattern vectors.

The trainer minimizes the soft-margin primal objective
    J(v) = (lambda/2) ||v||^2 + mean_i hinge(y_i v.z_i),   z_i = (x_i, 1)
with lambda = 1/(C n), by deterministic full-batch subgradient epochs with
step 1/(lambda t) for a fixed budget of 200 epochs (the bias rides in the
regularized vector as an always-one feature, which is what keeps the 1/(lambda t)
schedule stable). Subgradient steps are not descent steps individually, so the
model returned is the best iterate seen (standard best-point rule); the
exposed objective trace is the objective of that running best model and is
therefore non-increasing. Training is order-free and takes no seed; the
seed of cross-validation fixes only its fold assignment.

Every training stack is built by `_fit_chunk`: it lays a chunk of column
sets out row-major, whatever the matrix's layout, as z_i zero-padded to the
widest set, and trains every set on every row set as one `_fit` stack per
row-set size, the examples stored as y_i z_i; each epoch is one set of numpy
calls over the stack. `cross_validate_many` trains a chunk's folds and
scores them, and `train` fits each set on all rows (`cross_validate` is the
CV's one-set case). Both cut a stream of column sets, in arrival order, into
chunks of at most STACK_FLOATS padded floats, the one memory budget of
training; a CV yields a chunk's reports before it reads the next set. Each
set gets, on each row set, the bits it would get trained alone:
z @ v and v.v are stacked matmuls on each set size's own columns, which
make the same per-slice BLAS calls as the 2-D products (a padded sum may
round differently); y (z.v) is (y z).v exactly; the per-slice sums reduce
the same rows in the same order; and the gradient term sums -1/0/+1 terms,
which is exact in any order, so it is one padded call. The test folds are
scored with one decision matmul per (set size, fold).

Feature columns are in ascending pattern id, so a model and its F1 depend on
the set of patterns, not on the order they are listed in.

Prediction is sign(w.x + b) with sign(0) -> positive.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .footprints import FootprintMatrix

EPOCHS = 200
# The one memory cap of training: the floats of one chunk of column sets on
# the zero-padded layout, D the widest set. A set holds n rows of features
# and R training rows, (n + R) * (D + 1) floats: k * n * (D + 1) in a k-fold
# CV (R = (k - 1) * n) and 2 * n * (D + 1) in `train` (R = n). With r slices
# per set (k in a CV, 1 in `train`), `_fit`'s temporaries come on top, so
# one chunk of S sets peaks within
#   S * ((n + R) * (D + 1) + 4 * R + r * (6 * (D + 1) + EPOCHS + 1))
# floats: margins, violators and two hinge temporaries take 4 floats per
# training row, and each slice holds a few (D + 1)-vectors and an EPOCHS + 1
# trace (tested at k = 3 and 5 and in `train`). A larger set trains alone.
# Wall s / tracemalloc MB of one call (2-vCPU Xeon, shared host, median of
# 2-10 runs): the gold-sampled workload; run_gold on molecule_like(1, 100),
# 12 players exact and 109 sampled 4 times; acceptance test c8's gold call.
#   cap    gold-sampled  exact 12    109 x 4    c8 (172 x 30, k = 3)
#   2**16  0.24 / 1.3    5.4 / 2.1   2.4 / 1.4  39.3 / 1.2
#   2**17  0.22 / 2.0    4.8 / 3.2   1.7 / 2.2  23.8 / 1.8
#   2**18  0.21 / 3.1    5.2 / 5.5   1.7 / 3.5  15.7 / 2.8
#   2**19  0.25 / 5.5    5.0 / 10.2  2.3 / 5.9  16.3 / 4.9
# Interleaved in one process on a loaded host, 2**18 was 8-12 % slower than
# 2**17 on gold-sampled and 2-11 % on exact 12: it pays off on wide sets only.
STACK_FLOATS = 1 << 17


class ClassifyError(ValueError):
    pass


@dataclass(frozen=True)
class FeatureView:
    """Row-major binary matrix for the selected pattern columns, labels +-1."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.shape != (self.x.shape[0],):
            raise ClassifyError("features and labels must align")
        if not set(np.unique(self.y)) <= {-1, 1}:
            raise ClassifyError("labels must be +1/-1")
        if not set(np.unique(self.x)) <= {0.0, 1.0}:
            raise ClassifyError("features must be binary")

    @staticmethod
    def from_matrix(matrix: FootprintMatrix,
                    pattern_ids: Sequence[int]) -> "FeatureView":
        """Columns in ascending pattern id, so a model depends on the set of
        ids only: column order changes floating-point sums."""
        x = matrix.bits[:, sorted(pattern_ids)].astype(np.float64)
        y = matrix.labels.astype(np.int64)
        return FeatureView(x, y)

    @staticmethod
    def all_columns(matrix: FootprintMatrix) -> "FeatureView":
        """Every column, as the matrix's own bool bits: the source that
        `cross_validate_many` and `train` copy each set's columns from."""
        return FeatureView(matrix.bits, matrix.labels.astype(np.int64))


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float
    objective_trace: tuple[float, ...]


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    k: int
    fold_precision: tuple[float, ...]
    fold_recall: tuple[float, ...]
    fold_f1: tuple[float, ...]


def _fit(yz: np.ndarray, widths: Sequence[int],
         c: float) -> tuple[np.ndarray, np.ndarray]:
    """Train one SVM per leading slice of yz (sets, n, D + 1): slice s holds
    the labelled examples y_i z_i of its training set in its first widths[s]
    columns and zeros after them. Returns the best vectors (sets, D + 1),
    zero past each slice's width, and the running best objectives
    (EPOCHS + 1, sets)."""
    if c <= 0:
        raise ClassifyError("C must be positive")
    n = yz.shape[1]
    lam = 1.0 / (c * n)
    v = np.zeros((yz.shape[0], yz.shape[2]))    # updated in place
    margins = np.empty(yz.shape[:2])
    norms = np.empty(yz.shape[0])
    # z @ v and v.v are stacked matmuls on each run's own width, since a
    # padded BLAS sum may round differently; y (z.v) is (y z).v exactly
    products = []
    for a, b, w in _runs(widths):
        products.append((yz[a:b, :, :w], v[a:b, :w, None], margins[a:b, :, None]))
        products.append((v[a:b, None, :w], v[a:b, :w, None], norms[a:b, None, None]))

    def evaluate():
        # the margins at v give both its objective and the next epoch's
        # violators; sum / n has the bits of the 1-D mean()
        for left, right, out in products:
            np.matmul(left, right, out=out)
        hinge = np.maximum(0.0, 1.0 - margins).sum(axis=1) / n
        return 0.5 * lam * norms + hinge

    viol = np.empty((yz.shape[0], 1, n))
    best_v = v.copy()
    trace = np.empty((EPOCHS + 1, yz.shape[0]))
    trace[0] = best_obj = evaluate()
    for t in range(1, EPOCHS + 1):
        eta = 1.0 / (lam * t)
        np.less(margins, 1.0, out=viol[:, 0])
        # a sum of -1/0/+1 terms, exact in any order, so one padded call
        grad = lam * v - (viol @ yz)[:, 0] / n
        v -= eta * grad
        obj = evaluate()
        better = obj < best_obj
        best_obj = np.where(better, obj, best_obj)
        best_v = np.where(better[:, None], v, best_v)
        trace[t] = best_obj
    return best_v, trace


def _runs(widths: Sequence[int]) -> list[tuple[int, int, int]]:
    """(start, stop, width) of each run of equal widths."""
    runs, start = [], 0
    for width, run in itertools.groupby(widths):
        stop = start + len(list(run))
        runs.append((start, stop, width))
        start = stop
    return runs


def _prf1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision/recall/F1 on the positive class from its counts; 0/0 cases
    yield 0."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
    return precision, recall, f1


def stratified_folds(labels: Sequence[int], k: int, seed: int) -> list[np.ndarray]:
    """k folds with per-class round-robin assignment after a seeded shuffle."""
    y = np.asarray(labels)
    pos = [i for i in range(len(y)) if y[i] == 1]
    neg = [i for i in range(len(y)) if y[i] == -1]
    if k < 2:
        raise ClassifyError("k must be >= 2")
    if len(pos) < k or len(neg) < k:
        raise ClassifyError(f"each class needs at least {k} rows for {k} folds")
    rng = random.Random(seed)
    rng.shuffle(pos)
    rng.shuffle(neg)
    folds: list[list[int]] = [[] for _ in range(k)]
    for i, idx in enumerate(pos):
        folds[i % k].append(idx)
    for i, idx in enumerate(neg):
        folds[(k - 1 - i) % k].append(idx)
    return [np.array(sorted(f)) for f in folds]


def _fit_chunk(x: np.ndarray, y: np.ndarray, chunk: list[list[int]],
               row_sets: Sequence[np.ndarray], c: float,
               counts: Optional[Counter] = None):
    """Train every column set of `chunk` on every row set, one `_fit` stack
    per row-set size. Returns z (sets, n, D + 1): a set's columns of x, a
    ones column, then zeros; the best vectors (sets, row sets, D + 1); and
    each `_fit`'s running best objectives. `counts["fits"]` (when given)
    counts the `_fit`s."""
    n, d_max = len(y), max(map(len, chunk))
    z = np.zeros((len(chunk), n, d_max + 1))
    for a, cols in enumerate(chunk):
        z[a, :, :len(cols)] = x[:, cols]
        z[a, :, len(cols)] = 1.0
    by_size: dict[int, list[int]] = {}
    for i, rows in enumerate(row_sets):
        by_size.setdefault(len(rows), []).append(i)
    vectors = np.empty((len(chunk), len(row_sets), d_max + 1))
    traces = []
    for size, ids in by_size.items():
        rows = np.stack([row_sets[i] for i in ids])
        yz = np.take(z, rows, axis=1)   # C order: reshape copies nothing
        yz *= y[rows][None, :, :, None]
        best_v, trace = _fit(yz.reshape(-1, size, d_max + 1),
                             [len(cols) + 1 for cols in chunk for _ in ids], c)
        vectors[:, ids] = best_v.reshape(len(chunk), len(ids), -1)
        traces.append(trace)
        if counts is not None:
            counts["fits"] += 1
    return z, vectors, traces


def train(features: FeatureView, column_sets: Iterable[Iterable[int]],
          c: float = 1.0) -> list[LinearModel]:
    """Fit the soft-margin linear SVM on all rows for each set of columns of
    `features`, taken in ascending index; deterministic given (data, set,
    c). The sets train in chunks (`_chunks`), 2 * n * (D + 1) floats a set."""
    x, y = features.x, features.y
    if len(set(y.tolist())) < 2:
        raise ClassifyError("training data must contain both classes")
    models: list[LinearModel] = []
    for chunk in _chunks(column_sets, 2 * len(y)):
        vectors, (trace,) = _fit_chunk(x, y, chunk, [np.arange(len(y))], c)[1:]
        models += (LinearModel(v[:len(cols)], float(v[len(cols)]),
                               tuple(trace[:, a].tolist()))
                   for a, (cols, v) in enumerate(zip(chunk, vectors[:, 0])))
    return models


def cross_validate_many(features: FeatureView,
                        column_sets: Iterable[Iterable[int]], k: int = 5,
                        c: float = 1.0, seed: int = 0,
                        counts: Optional[Counter] = None) -> Iterator[EvalReport]:
    """Stratified k-fold CV on each set of columns of `features`, yielding
    one report per set in order; a set's columns are taken in ascending
    index.

    All sets share the folds. The sets are read as they arrive and cut, in
    arrival order, into chunks (`_chunks`); a chunk pads to its widest set,
    so a caller with many sets hands them over by size. A chunk trains its
    folds through `_fit_chunk`, and its reports are yielded before the next
    set is read. `counts["fits"]` (when given) counts the stacked `_fit`
    calls.
    """
    x, y = features.x, features.y
    folds = stratified_folds(y.tolist(), k, seed)
    n = len(y)
    # rows in fold order, so each test fold is one block of rows; training
    # rows keep ascending row order, as a training set read alone has them
    order = np.concatenate(folds)
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    x, y = x[order], y[order]
    starts = np.cumsum([0] + [len(fold) for fold in folds])
    train_rows = [position[np.setdiff1d(np.arange(n), fold)] for fold in folds]
    for chunk in _chunks(column_sets, k * n):
        # the traces are dropped: the CV keeps only (w, b) per set and fold
        z, vectors = _fit_chunk(x, y, chunk, train_rows, c, counts)[:2]
        # one decision matmul per (set size, test fold), as each fold's
        # 2-D x @ w + b
        scores = np.empty((len(chunk), n))
        for a, b, w in _runs([len(cols) + 1 for cols in chunk]):
            for f, (lo, hi) in enumerate(zip(starts, starts[1:])):
                np.matmul(z[a:b, lo:hi, :w - 1], vectors[a:b, f, :w - 1, None],
                          out=scores[a:b, lo:hi, None])
                scores[a:b, lo:hi] += vectors[a:b, f, w - 1, None]
        del z   # the next chunk's stack is built without this one
        positive = scores >= 0.0
        tp = np.add.reduceat(positive & (y == 1), starts[:-1], axis=1).tolist()
        pp = np.add.reduceat(positive, starts[:-1], axis=1).tolist()
        pos = np.add.reduceat(y == 1, starts[:-1]).tolist()
        for set_tp, set_pp in zip(tp, pp):
            ps, rs, fs = zip(*(_prf1(t, p - t, q - t)
                               for t, p, q in zip(set_tp, set_pp, pos)))
            yield EvalReport(
                precision=float(np.mean(ps)), recall=float(np.mean(rs)),
                f1=float(np.mean(fs)), k=k, fold_precision=ps,
                fold_recall=rs, fold_f1=fs)


def _chunks(column_sets: Iterable[Iterable[int]],
            rows: int) -> Iterator[list[list[int]]]:
    """The sets as ascending column lists, cut in arrival order into chunks
    of at most STACK_FLOATS floats, `rows` * (D + 1) per set; a set larger
    than the cap is a chunk of its own."""
    chunk: list[list[int]] = []
    d_max = 0
    for cols in map(sorted, column_sets):
        if chunk and (len(chunk) + 1) * rows * (max(d_max, len(cols)) + 1) > STACK_FLOATS:
            yield chunk
            chunk, d_max = [], 0
        chunk.append(cols)
        d_max = max(d_max, len(cols))
    if chunk:
        yield chunk


def cross_validate(features: FeatureView, k: int = 5, c: float = 1.0,
                   seed: int = 0) -> EvalReport:
    """Stratified k-fold cross-validation; reports positive-class means."""
    d = features.x.shape[1]
    return next(cross_validate_many(features, [range(d)], k=k, c=c, seed=seed))


def eval_csv(report: EvalReport) -> str:
    lines = ["fold,precision,recall,f1"]
    for i in range(report.k):
        lines.append(f"{i},{float(report.fold_precision[i])!r},"
                     f"{float(report.fold_recall[i])!r},{float(report.fold_f1[i])!r}")
    return "\n".join(lines) + "\n"


def model_csv(model: LinearModel, pattern_ids: Sequence[int]) -> str:
    lines = ["pattern_id,weight"]
    for pid, w in zip(pattern_ids, model.weights):
        lines.append(f"{pid},{float(w)!r}")
    lines.append(f"bias,{float(model.bias)!r}")
    return "\n".join(lines) + "\n"
