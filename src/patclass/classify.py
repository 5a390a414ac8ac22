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

Cross-validation trains its folds as one stack: each epoch of `_fit` is one
set of numpy calls over every fold's training set, and one stacked z @ v per
epoch gives the margins for both the objective and the next subgradient.
Each fold still gets the bits it would get trained alone: numpy's stacked
matmul issues the same per-slice BLAS gemv as the 2-D call, and the y.z part
of the gradient sums -1/0/+1 terms, which is exact in any order. The
round-robin folds have at most two training-set sizes, one stack each.

Feature columns are in ascending pattern id, so a model and its F1 depend on
the set of patterns, not on the order they are listed in.

Prediction is sign(w.x + b) with sign(0) -> positive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .footprints import FootprintMatrix

EPOCHS = 200


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


def cross_validate(features: FeatureView, k: int = 5, c: float = 1.0,
                   seed: int = 0) -> EvalReport:
    """Stratified k-fold cross-validation; reports positive-class means."""
    x, y = features.x, features.y
    folds = stratified_folds(y.tolist(), k, seed)
    n, d = x.shape
    z = np.hstack([x, np.ones((n, 1))])
    yf = y.astype(np.float64)
    train_rows = [np.setdiff1d(np.arange(n), fold) for fold in folds]
    # the round-robin folds have at most two sizes; each size is one stack
    by_size: dict[int, list[int]] = {}
    for i, rows in enumerate(train_rows):
        by_size.setdefault(len(rows), []).append(i)
    vectors = {}
    for members in by_size.values():
        rows = np.stack([train_rows[i] for i in members])
        vectors.update(zip(members, _fit(z[rows], yf[rows], c)[0]))
    ps, rs, fs = [], [], []
    for i, fold in enumerate(folds):
        model = LinearModel(vectors[i][:d], float(vectors[i][d]), c, seed, ())
        p, r, f = prf1(predict(model, x[fold]), y[fold])
        ps.append(p)
        rs.append(r)
        fs.append(f)
    return EvalReport(
        precision=float(np.mean(ps)), recall=float(np.mean(rs)),
        f1=float(np.mean(fs)), k=k,
        fold_precision=tuple(ps), fold_recall=tuple(rs), fold_f1=tuple(fs))


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
