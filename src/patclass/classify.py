"""Linear maximum-margin classification on binary pattern vectors.

The trainer minimizes the soft-margin primal objective
    J(v) = (lambda/2) ||v||^2 + mean_i hinge(y_i v.z_i),   z_i = (x_i, 1)
with lambda = 1/(C n), by deterministic full-batch subgradient epochs with
step 1/(lambda t) for a fixed budget of 200 epochs (the bias rides in the
regularized vector as an always-one feature, which is what keeps the 1/(lambda t)
schedule stable). Subgradient steps are not descent steps individually, so the
model returned is the best iterate seen (standard best-point rule); the
exposed objective trace is the objective of that running best model and is
therefore non-increasing. The seed fixes cross-validation fold assignment;
training itself is order-free.

Cross-validation trains many folds as one stack: each epoch of `_fit` is
one set of numpy calls over every stacked training set, and one stacked
z @ v per epoch gives the margins for both the objective and the next
subgradient. `cross_validate_many` stacks across column sets too: it takes
one labelled feature matrix and many sets of its columns, and the folds of
every set of the same size share one stack per training-set size (the
round-robin folds have at most two sizes). The stacks are cut into chunks of
at most STACK_FLOATS floats, and a chunk's features are copied out of the
matrix only when it trains, so memory stays bounded however many sets one
call trains; `cross_validate` is its one-set case. Each fold still gets the bits it would get trained alone:
numpy's stacked matmul issues the same per-slice BLAS gemv as the 2-D call,
the per-slice sums reduce the same rows in the same order, and the y.z part
of the gradient sums -1/0/+1 terms, which is exact in any order.

Feature columns are in ascending pattern id, so a model and its F1 depend on
the set of patterns, not on the order they are listed in.

Prediction is sign(w.x + b) with sign(0) -> positive.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .footprints import FootprintMatrix

EPOCHS = 200
# Memory cap of `cross_validate_many`: the floats of one chunk of column
# sets, counted as k * n * (d + 1) per set (2**18 floats, 2 MB). A chunk's
# features, its `_fit` stack and the stack's temporaries are a small
# multiple of that, however many sets one call trains; a set larger than the
# cap trains alone.
STACK_FLOATS = 1 << 18


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
        `cross_validate_many` copies each set's columns from."""
        return FeatureView(matrix.bits, matrix.labels.astype(np.int64))


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float
    c: float
    seed: int
    objective_trace: tuple[float, ...]

    def decision(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.weights.shape[0]:
            raise ClassifyError("feature dimension mismatch")
        return x @ self.weights + self.bias


@dataclass(frozen=True)
class EvalReport:
    precision: float
    recall: float
    f1: float
    k: int
    fold_precision: tuple[float, ...]
    fold_recall: tuple[float, ...]
    fold_f1: tuple[float, ...]


def _fit(z: np.ndarray, y: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Train one SVM per leading slice of z (sets, n, d+1) with labels y
    (sets, n) of +-1.0; returns the best vectors (sets, d+1) and the running
    best objectives (EPOCHS + 1, sets)."""
    if c <= 0:
        raise ClassifyError("C must be positive")
    n = z.shape[1]
    lam = 1.0 / (c * n)
    yz_t = (y[:, :, None] * z).transpose(0, 2, 1)

    def evaluate(v):
        # the margins at v give both its objective and the next epoch's
        # violators; sum / n has the bits of the 1-D mean()
        margins = y * (z @ v[:, :, None])[:, :, 0]
        hinge = np.maximum(0.0, 1.0 - margins).sum(axis=1) / n
        return margins, 0.5 * lam * (v[:, None, :] @ v[:, :, None])[:, 0, 0] + hinge

    v = best_v = np.zeros((z.shape[0], z.shape[2]))
    margins, best_obj = evaluate(v)
    trace = [best_obj]
    for t in range(1, EPOCHS + 1):
        eta = 1.0 / (lam * t)
        viol = (margins < 1.0).astype(np.float64)
        grad = lam * v - (yz_t @ viol[:, :, None])[:, :, 0] / n
        v = v - eta * grad
        margins, obj = evaluate(v)
        better = obj < best_obj
        best_obj = np.where(better, obj, best_obj)
        best_v = np.where(better[:, None], v, best_v)
        trace.append(best_obj)
    return best_v, np.array(trace)


def train(features: FeatureView, c: float = 1.0, seed: int = 0) -> LinearModel:
    """Fit the soft-margin linear SVM; deterministic given (data, c, seed)."""
    x, y = features.x, features.y
    if len(set(y.tolist())) < 2:
        raise ClassifyError("training data must contain both classes")
    n, d = x.shape
    z = np.hstack([x, np.ones((n, 1))])
    best_v, trace = _fit(z[None], y[None].astype(np.float64), c)
    return LinearModel(weights=best_v[0, :d], bias=float(best_v[0, d]), c=c,
                       seed=seed, objective_trace=tuple(trace[:, 0].tolist()))


def predict(model: LinearModel, features: FeatureView | np.ndarray) -> np.ndarray:
    """Labels sign(w.x + b); the sign of 0 is positive by convention."""
    x = features.x if isinstance(features, FeatureView) else features
    scores = model.decision(x)
    return np.where(scores >= 0.0, 1, -1)


def prf1(predicted: Sequence[int], truth: Sequence[int]) -> tuple[float, float, float]:
    """Precision/recall/F1 on the positive class; 0/0 cases yield 0."""
    pred = np.asarray(predicted)
    true = np.asarray(truth)
    if pred.shape != true.shape:
        raise ClassifyError("prediction/truth length mismatch")
    tp = int(((pred == 1) & (true == 1)).sum())
    fp = int(((pred == 1) & (true == -1)).sum())
    fn = int(((pred == -1) & (true == 1)).sum())
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


def cross_validate_many(features: FeatureView,
                        column_sets: Sequence[Iterable[int]], k: int = 5,
                        c: float = 1.0, seed: int = 0,
                        counts: Optional[Counter] = None) -> list[EvalReport]:
    """Stratified k-fold CV on each set of columns of `features`, one report
    per set in order; a set's columns are taken in ascending index.

    All sets share the folds. Sets of equal size train as one `_fit` stack
    per training-set size, in chunks of at most STACK_FLOATS stacked floats,
    and a chunk's features are copied out of `features` only when it trains;
    `counts["fits"]` (when given) counts the stacked `_fit` calls.
    """
    x, y = features.x, features.y
    columns = [sorted(cols) for cols in column_sets]
    folds = stratified_folds(y.tolist(), k, seed)
    n = len(y)
    yf = y.astype(np.float64)
    train_rows = [np.setdiff1d(np.arange(n), fold) for fold in folds]
    # the round-robin folds have at most two sizes; each size is one stack
    by_size: dict[int, list[int]] = {}
    for i, rows in enumerate(train_rows):
        by_size.setdefault(len(rows), []).append(i)
    by_width: dict[int, list[int]] = {}
    for j, cols in enumerate(columns):
        by_width.setdefault(len(cols), []).append(j)
    reports = [None] * len(columns)    # filled chunk by chunk
    for d, members in by_width.items():
        step = max(1, STACK_FLOATS // (k * n * (d + 1)))
        for start in range(0, len(members), step):
            chunk = members[start:start + step]
            z = np.ones((len(chunk), n, d + 1))
            for a, j in enumerate(chunk):
                z[a, :, :d] = x[:, columns[j]]
            vectors = np.empty((len(chunk), k, d + 1))   # (w, b) per set, fold
            for size, fold_ids in by_size.items():
                rows = np.stack([train_rows[i] for i in fold_ids])
                best_v = _fit(z[:, rows].reshape(-1, size, d + 1),
                              np.tile(yf[rows], (len(chunk), 1)), c)[0]
                vectors[:, fold_ids] = best_v.reshape(len(chunk), len(fold_ids), d + 1)
                if counts is not None:
                    counts["fits"] += 1
            for j, zj, set_vectors in zip(chunk, z, vectors):
                ps, rs, fs = [], [], []
                for fold, v in zip(folds, set_vectors):
                    model = LinearModel(v[:d], float(v[d]), c, seed, ())
                    p, r, f = prf1(predict(model, zj[fold, :d]), y[fold])
                    ps.append(p)
                    rs.append(r)
                    fs.append(f)
                reports[j] = EvalReport(
                    precision=float(np.mean(ps)), recall=float(np.mean(rs)),
                    f1=float(np.mean(fs)), k=k, fold_precision=tuple(ps),
                    fold_recall=tuple(rs), fold_f1=tuple(fs))
    return reports


def cross_validate(features: FeatureView, k: int = 5, c: float = 1.0,
                   seed: int = 0) -> EvalReport:
    """Stratified k-fold cross-validation; reports positive-class means."""
    d = features.x.shape[1]
    return cross_validate_many(features, [range(d)], k=k, c=c, seed=seed)[0]


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
