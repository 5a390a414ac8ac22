import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from patclass import classify
from patclass.classify import (ClassifyError, EvalReport, FeatureView,
                               LinearModel, cross_validate, cross_validate_many,
                               eval_csv, model_csv, stratified_folds, train)
from patclass.footprints import FootprintMatrix

from oracles import predict, prf1, reference_cross_validate, reference_train


def balanced_labels(n):
    return np.array([1] * (n // 2) + [-1] * (n - n // 2))


class TestFeatureView:
    def test_non_binary_features_rejected(self):
        # the value scan is skipped only for bool bits, binary by their dtype
        y = balanced_labels(4)
        for bad in ([0.5, 1.0, 0.0, 1.0], [2.0, 0.0, 1.0, 1.0], [0, 1, 1, -1]):
            with pytest.raises(ClassifyError, match="binary"):
                FeatureView(np.array(bad).reshape(-1, 1), y)
        bits = np.array([[True], [False], [True], [False]])
        assert FeatureView(bits, y).x is bits


class TestTrain:
    def test_aligned_column_perfect_f1(self):
        y = balanced_labels(24)
        x = (y == 1).astype(float).reshape(-1, 1)
        [model] = train(FeatureView(x, y), [range(1)])
        assert prf1(predict(model, x), y)[2] == 1.0

    def test_all_zero_features_constant_positive(self):
        y = balanced_labels(20)
        x = np.zeros((20, 4))
        [model] = train(FeatureView(x, y), [range(4)])
        pred = predict(model, x)
        assert set(pred.tolist()) == {1}
        assert prf1(pred, y)[2] == pytest.approx(2 / 3)

    def test_single_class_error(self):
        x = np.ones((4, 2))
        y = np.ones(4, dtype=int)
        with pytest.raises(ClassifyError):
            train(FeatureView(x, y), [range(2)])

    def test_2d_separable_matches_grid_oracle_sign(self):
        x = np.array([[1, 0], [1, 0], [1, 1], [0, 1], [0, 0], [0, 1]], dtype=float)
        y = np.array([1, 1, 1, -1, -1, -1])
        [model] = train(FeatureView(x, y), [range(2)])
        # coarse grid search over (w1, w2, b) for a zero-training-error margin
        # maximizer; the trained model must agree on the training signs
        best = None
        grid = np.linspace(-3, 3, 25)
        for w1 in grid:
            for w2 in grid:
                for b in grid:
                    margins = y * (x @ np.array([w1, w2]) + b)
                    worst = margins.min()
                    norm = np.hypot(w1, w2)
                    if norm == 0:
                        continue
                    score = worst / norm
                    if best is None or score > best[0]:
                        best = (score, np.array([w1, w2]), b)
        _score, w, b = best
        oracle_pred = np.where(x @ w + b >= 0, 1, -1)
        assert (predict(model, x) == oracle_pred).all()

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(5)
        x = (rng.random((30, 8)) < 0.4).astype(float)
        y = balanced_labels(30)
        [model] = train(FeatureView(x, y), [range(8)])
        tr = model.objective_trace
        assert all(b <= a + 1e-15 for a, b in zip(tr, tr[1:]))
        assert len(tr) == 201

    def test_invalid_c(self):
        x = np.zeros((4, 1))
        y = np.array([1, 1, -1, -1])
        with pytest.raises(ClassifyError):
            train(FeatureView(x, y), [range(1)], c=0.0)


class TestPredict:
    def test_zero_model_all_positive(self):
        model = LinearModel(np.zeros(2), 0.0, (0.0,))
        x = np.array([[0.0, 1.0], [1.0, 1.0]])
        assert predict(model, x).tolist() == [1, 1]

    def test_dimension_mismatch(self):
        model = LinearModel(np.zeros(2), 0.0, (0.0,))
        with pytest.raises(ClassifyError):
            predict(model, np.zeros((3, 5)))

    def test_matches_dot_product_recomputation(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=6)
        b = float(rng.normal())
        model = LinearModel(w, b, (0.0,))
        x = (rng.random((40, 6)) < 0.5).astype(float)
        expected = [1 if sum(w[j] * x[i, j] for j in range(6)) + b >= 0 else -1
                    for i in range(40)]
        assert predict(model, x).tolist() == expected


class TestPrf1:
    def test_all_correct(self):
        assert prf1([1, -1, 1], [1, -1, 1]) == (1.0, 1.0, 1.0)

    def test_constant_positive_on_balanced(self):
        y = balanced_labels(10)
        pred = np.ones(10, dtype=int)
        p, r, f = prf1(pred, y)
        assert (p, r) == (0.5, 1.0)
        assert f == pytest.approx(2 / 3)

    def test_zero_denominators(self):
        assert prf1([-1, -1], [-1, -1]) == (0.0, 0.0, 0.0)

    def test_matches_confusion_oracle(self):
        rng = random.Random(2)
        for _ in range(50):
            n = rng.randint(2, 40)
            pred = [rng.choice([1, -1]) for _ in range(n)]
            true = [rng.choice([1, -1]) for _ in range(n)]
            tp = sum(1 for a, t in zip(pred, true) if a == 1 and t == 1)
            fp = sum(1 for a, t in zip(pred, true) if a == 1 and t == -1)
            fn = sum(1 for a, t in zip(pred, true) if a == -1 and t == 1)
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f = 2 * p * r / (p + r) if p + r else 0.0
            assert prf1(pred, true) == (p, r, f)


class TestCrossValidate:
    def test_separable_f1_one(self):
        y = balanced_labels(30)
        x = (y == 1).astype(float).reshape(-1, 1)
        rep = cross_validate(FeatureView(x, y), k=5, seed=3)
        assert rep.f1 == 1.0

    def test_random_features_band(self):
        # band fixed by a Monte-Carlo sweep before enforcement (mean over
        # seeds ~0.49, extremes within [0.3, 0.8])
        for seed in (0, 7, 23):
            rng = np.random.default_rng(seed)
            x = (rng.random((60, 30)) < 0.3).astype(float)
            y = balanced_labels(60)
            rep = cross_validate(FeatureView(x, y), k=5, seed=seed)
            assert 0.3 <= rep.f1 <= 0.8

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        x = (rng.random((40, 10)) < 0.4).astype(float)
        y = balanced_labels(40)
        a = cross_validate(FeatureView(x, y), k=4, c=2.0, seed=11)
        b = cross_validate(FeatureView(x, y), k=4, c=2.0, seed=11)
        assert a == b

    def test_class_too_small(self):
        x = np.zeros((6, 1))
        y = np.array([1, 1, 1, 1, -1, -1])
        with pytest.raises(ClassifyError):
            cross_validate(FeatureView(x, y), k=3)

    def test_folds_partition_and_stratify(self):
        y = balanced_labels(24).tolist()
        folds = stratified_folds(y, 4, seed=0)
        all_idx = sorted(i for f in folds for i in f)
        assert all_idx == list(range(24))
        for f in folds:
            labs = [y[i] for i in f]
            assert labs.count(1) == 3 and labs.count(-1) == 3


class TestAgainstReference:
    """Stacked-fold training gives the bits of the one-fold-at-a-time loop."""

    @staticmethod
    def random_case(seed, k, d):
        rng = np.random.default_rng(seed)
        n_pos = 7 * k + 1 + seed % (k - 1)   # n_pos % k != 0
        n = 2 * n_pos + 1
        n += n % k == 0                        # n % k != 0: unequal folds
        y = np.array([1] * n_pos + [-1] * (n - n_pos))
        rng.shuffle(y)
        x = (rng.random((n, d)) < rng.uniform(0.1, 0.5)).astype(float)
        return x, y

    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    @pytest.mark.parametrize("d", [1, 13, 240])
    def test_cross_validate_bit_identical(self, k, d):
        for seed, c in ((k + d, 1.0), (k + d + 1, 0.1), (k + d + 2, 3.0)):
            x, y = self.random_case(seed, k, d)
            assert len({len(f) for f in stratified_folds(y.tolist(), k, seed)}) == 2
            got = cross_validate(FeatureView(x, y), k=k, c=c, seed=seed)
            want = reference_cross_validate(x, y, k=k, c=c, seed=seed)
            for field in ("fold_precision", "fold_recall", "fold_f1",
                          "precision", "recall", "f1"):
                assert getattr(got, field) == getattr(want, field), field

    @staticmethod
    def mixed_sets(seed):
        """Ten sets of 240 columns: 13, 1, 240, 13, 13, 1, 240 and 13
        columns, then the first again and the third reversed."""
        rng = np.random.default_rng(seed)
        sets = [rng.choice(240, d, replace=False).tolist()
                for d in (13, 1, 240, 13, 13, 1, 240, 13)]
        return sets + [sets[0], sets[2][::-1]]

    def check_many(self, monkeypatch, k, stack_floats, ascending=False):
        """Mixed set sizes and repeated sets in one call: every set gets the
        bits of its own CV, whatever stack and chunk it trains in. Sorted by
        size the sets have 1, 1, 13 x 5 and 240 x 3 columns; they arrive
        mixed, or by size when `ascending`. Returns the number of stacked
        fits."""
        monkeypatch.setattr(classify, "STACK_FLOATS", stack_floats)
        x, y = self.random_case(k + 17, k, 240)
        sets = self.mixed_sets(k)
        if ascending:
            sets.sort(key=len)
        counts = Counter()
        got = cross_validate_many(FeatureView(x.astype(bool), y), sets, k=k,
                                  c=0.5, seed=k, counts=counts)
        for cols, report in zip(sets, got, strict=True):
            want = reference_cross_validate(x[:, sorted(cols)], y, k=k, c=0.5,
                                            seed=k)
            for field in ("fold_precision", "fold_recall", "fold_f1",
                          "precision", "recall", "f1"):
                assert getattr(report, field) == getattr(want, field), field
        return counts["fits"]

    @pytest.mark.parametrize("stack_floats", [1 << 40, 1])
    @pytest.mark.parametrize("k", [3, 5])
    def test_cross_validate_many_bit_identical(self, monkeypatch, k, stack_floats):
        # 1 << 40 trains all ten sets, of three sizes in mixed order, as
        # one chunk; 1 makes one chunk per set. Two training-set sizes: one
        # stack per size in every chunk
        chunks = 1 if stack_floats > 1 else 10
        assert self.check_many(monkeypatch, k, stack_floats) == 2 * chunks

    @pytest.mark.parametrize("k", [3, 5])
    def test_cross_validate_many_splits_a_size_across_chunks(self, monkeypatch, k):
        # room for three sets of 14 floats a row; the sets arrive by size:
        # chunks 1, 1, 13 | 13 x 3 | 13 | then each 240-column set alone
        n = len(self.random_case(k + 17, k, 240)[1])
        assert self.check_many(monkeypatch, k, 3 * k * n * 14,
                               ascending=True) == 2 * 6

    def test_mixed_width_fit_matches_per_width_fits(self):
        # one _fit over a zero-padded stack of widths 1, 14 and 241 gives
        # every slice the vector and objective trace of a _fit over its own
        # width, and keeps the padding at zero
        rng = np.random.default_rng(11)
        n = 37
        widths = [1, 1, 14, 14, 14, 241, 241]
        stacks = []
        for w in widths:
            z = (rng.random((n, w)) < rng.uniform(0.1, 0.5)).astype(float)
            z[:, -1] = 1.0
            stacks.append(z * rng.choice([-1.0, 1.0], n)[:, None])
        padded = np.zeros((len(widths), n, max(widths)))
        for s, (w, z) in enumerate(zip(widths, stacks)):
            padded[s, :, :w] = z
        best_v, trace = classify._fit(padded, widths, 0.7)
        for w in sorted(set(widths)):
            members = [s for s in range(len(widths)) if widths[s] == w]
            want_v, want_trace = classify._fit(
                np.stack([stacks[s] for s in members]), [w] * len(members), 0.7)
            assert best_v[members, :w].tobytes() == want_v.tobytes()
            assert not best_v[members, w:].any()
            assert trace[:, members].tobytes() == want_trace.tobytes()

    def test_cross_validate_many_no_sets(self):
        x, y = self.random_case(2, 3, 4)
        assert list(cross_validate_many(FeatureView(x, y), [], k=3)) == []

    def test_cross_validate_many_reads_sets_lazily(self, monkeypatch):
        # with one set per chunk, the first report is yielded once the
        # second set shows the first chunk is full: a caller can hand over
        # any number of sets without them all being held
        monkeypatch.setattr(classify, "STACK_FLOATS", 1)
        x, y = self.random_case(5, 3, 6)
        pulled = []

        def sets():
            for d in range(1, 7):
                pulled.append(d)
                yield range(d)

        reports = cross_validate_many(FeatureView(x, y), sets(), k=3)
        first = next(reports)
        assert len(pulled) <= 2
        assert first == cross_validate(FeatureView(x[:, :1], y), k=3)
        assert len(list(reports)) == 5 and len(pulled) == 6

    @pytest.mark.parametrize("d", [1, 13, 240])
    def test_train_bit_identical(self, d):
        for seed, c in ((d, 1.0), (d + 1, 0.1), (d + 2, 3.0)):
            x, y = self.random_case(seed, 5, d)
            weights, bias, trace = reference_train(x, y, c=c)
            # the input's memory layout does not reach the model
            for layout in (np.ascontiguousarray, np.asfortranarray):
                [model] = train(FeatureView(layout(x), y), [range(d)], c=c)
                assert model.weights.tobytes() == weights.tobytes()
                assert model.bias == bias
                assert model.objective_trace == trace

    @pytest.mark.parametrize("stack_floats", [1 << 40, 1])
    def test_train_many_bit_identical(self, monkeypatch, stack_floats):
        # mixed set sizes and repeated sets in one call, trained as one
        # chunk or one chunk per set: every set gets the bits of its
        # one-set call and of the one-set reference trainer
        monkeypatch.setattr(classify, "STACK_FLOATS", stack_floats)
        x, y = self.random_case(22, 5, 240)
        sets = self.mixed_sets(5)
        view = FeatureView(x.astype(bool), y)
        models = train(view, sets, c=0.5)
        assert len(models) == len(sets)
        for cols, model in zip(sets, models):
            [alone] = train(view, [cols], c=0.5)
            weights, bias, trace = reference_train(x[:, sorted(cols)], y, c=0.5)
            for want in (alone, LinearModel(weights, bias, trace)):
                assert model.weights.tobytes() == want.weights.tobytes()
                assert model.bias == want.bias
                assert model.objective_trace == want.objective_trace


    def test_reference_train_ignores_the_input_layout(self):
        # x[:, cols] is column-major; the reference trainer's sums round
        # differently on it unless it makes its own row-major copy (here
        # 178 of the 201 trace entries did)
        x, y = self.random_case(22, 5, 240)
        sub = x[:, list(range(13))]
        assert not sub.flags.c_contiguous
        weights, bias, trace = reference_train(sub, y, c=0.5)
        for layout in (np.ascontiguousarray, np.asfortranarray):
            want = reference_train(layout(sub), y, c=0.5)
            assert weights.tobytes() == want[0].tobytes()
            assert (bias, trace) == want[1:]
        [model] = train(FeatureView(x, y), [range(13)], c=0.5)
        assert model.weights.tobytes() == weights.tobytes()
        assert model.bias == bias and model.objective_trace == trace


class TestChunkMemory:
    @pytest.mark.parametrize("k", [3, 5, "train"])
    def test_one_chunk_peak_within_stated_bound(self, monkeypatch, k):
        # the per-chunk bound of the STACK_FLOATS comment, on 40 sets of 12
        # columns over 100 rows, cut as one chunk: the counted features and
        # training stacks, then _fit's per-slice temporaries and trace. On
        # top come the call's reordered copy of the input and its fold
        # index arrays, (k + 5) * n words. `train` has r = 1 slice per set
        # over R = n rows; on top come its row index and label arrays,
        # 3 * n words, and _fit's per-slice norms and objectives, 8 floats
        n, sets, d = 100, 40, 12
        rng = np.random.default_rng(1 if k == "train" else k)
        x = rng.random((n, 30)) < 0.4
        y = balanced_labels(n)
        column_sets = [rng.choice(30, d, replace=False).tolist() for _ in range(sets)]
        r, rows = (1, n) if k == "train" else (k, (k - 1) * n)
        counted = sets * (n + rows) * (d + 1)
        monkeypatch.setattr(classify, "STACK_FLOATS", counted)
        view, counts = FeatureView(x, y), Counter()
        if k == "train":
            def run(column_sets):
                return train(view, column_sets)
        else:
            def run(column_sets):
                return list(cross_validate_many(view, column_sets, k=k, counts=counts))
        # a first call outside the trace, so one-time imports stay out of it
        run(column_sets[:1])
        counts.clear()
        tracemalloc.start()
        try:
            results = run(column_sets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(results) == sets
        temporaries = sets * (4 * rows + r * (6 * (d + 1) + classify.EPOCHS + 1))
        if k == "train":
            assert peak <= 8 * (counted + temporaries) + 8 * (3 * n + 8 * sets)
            return
        # one chunk: one stack per training-set size
        assert counts["fits"] == len({len(f) for f in stratified_folds(y.tolist(), k, 0)})
        assert peak <= 8 * (counted + temporaries) + x.nbytes + 8 * (k + 5) * n


class TestColumnOrder:
    def test_same_set_any_order_same_bits(self):
        rng = np.random.default_rng(4)
        n, p = 40, 30
        bits = rng.random((n, p)) < rng.uniform(0.2, 0.6, p)
        bits[0] = True
        mat = FootprintMatrix(bits, balanced_labels(n).tolist())
        for _ in range(12):
            ids = rng.choice(p, size=int(rng.integers(5, p)), replace=False).tolist()
            want = cross_validate(FeatureView.from_matrix(mat, sorted(ids)), k=5, seed=2)
            weights = train(FeatureView.from_matrix(mat, sorted(ids)),
                            [range(len(ids))])[0].weights
            for _ in range(3):
                shuffled = rng.permutation(ids).tolist()
                view = FeatureView.from_matrix(mat, shuffled)
                assert cross_validate(view, k=5, seed=2) == want
                assert (train(view, [range(len(ids))])[0].weights.tobytes()
                        == weights.tobytes())

    def test_model_csv_pairs_weights_with_ids(self):
        # column 2 is the class itself: it gets the one large positive weight
        y = balanced_labels(24)
        x = np.zeros((24, 3))
        x[:, 0] = 1.0
        x[::3, 1] = 1.0
        x[:, 2] = y == 1
        mat = FootprintMatrix(x.astype(bool), y.tolist())
        ids = [2, 0, 1]
        [model] = train(FeatureView.from_matrix(mat, ids), [range(3)])
        rows = dict(line.split(",") for line in
                    model_csv(model, sorted(ids)).splitlines()[1:-1])
        assert max(rows, key=lambda pid: float(rows[pid])) == "2"


class TestDuplicateColumnStability:
    def test_threshold0_reps_close_to_full_f1(self):
        # duplicate-heavy matrix: representatives at threshold 0 give F1
        # within 0.02 of the all-patterns F1
        from patclass.clusterer import agglomerate_complete, manhattan_matrix
        from oracles import cut
        rng = np.random.default_rng(13)
        n, base_p = 60, 12
        base = rng.random((n, base_p)) < rng.uniform(0.2, 0.6, base_p)
        dup = base[:, rng.integers(0, base_p, 30)]
        bits = np.hstack([base, dup])
        bits[0] = True
        y = balanced_labels(n)
        mat = FootprintMatrix(bits, y.tolist())
        ids = list(range(mat.n_patterns))
        d = manhattan_matrix(mat, ids)
        dg = agglomerate_complete(d)
        reps = cut(dg, 0, d).representatives
        full = cross_validate(FeatureView.from_matrix(mat, ids), k=5, seed=1)
        reduced = cross_validate(FeatureView.from_matrix(mat, list(reps)), k=5, seed=1)
        assert abs(full.f1 - reduced.f1) <= 0.02


class TestCsv:
    def test_schemas(self):
        rep = EvalReport(1.0, 1.0, 1.0, 2, (1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
        assert eval_csv(rep).startswith("fold,precision,recall,f1")
        model = LinearModel(np.array([0.5, -0.25]), 0.125, (0.0,))
        text = model_csv(model, [3, 8])
        assert "3,0.5" in text and text.strip().endswith("bias,0.125")
