"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Two cells are documented expected failures (strict xfail), both analyzed in
the benchmark notes and the repository README:

  * ColStr / Jumpiness — the printed composite formula's second denominator
    changes sign inside the domain, producing finite-score violations that no
    +-inf/0 convention explains; the declared Ju flag cannot be reproduced
    by any formula consistent with the declared Co flag and ranking blocks.
  * Entropy vs the {Dep, Gini, Fisher} block — on balanced classes all four
    are strictly increasing functions of |p(pos|P) - 0.5| with identical tie
    sets, so exact arithmetic provably merges them; the shipped reference
    block table keeps Entropy separate, which only float noise can produce.

Everything else is asserted strictly at the stated tolerances.

Dataset-dependent checks (MUTAG) skip with instructions when no local copy
is available; see README for the expected file and format.
"""

import json
import math
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from patclass import classify, clusterer, footprints, graphdata, measures
from patclass import miner, properties, rankcmp, shapley
from patclass.cli import RunConfig, run_pipeline

from oracles import (batch, check, check_independence_equilibrium,
                     check_ps2_exclusivity, connected_subgraph_classes, cut,
                     graph_canonical_form, graph_support, naive_rbo, random_graph,
                     rbo_prefix_monotonicity_check, recheck_counterexample)

COLSTR_JU = ("ColStr", "Jumpiness")
ENTROPY_BLOCK_PAIRS = {("Dep", "Entropy"), ("Entropy", "Fisher"),
                       ("Entropy", "Gini")}

REFERENCE_BLOCKS = [
    {"Conf", "CFactor", "GR", "Brins", "Cole", "Lift", "Sebag", "Zhang",
     "CConf", "InfGain"},
    {"Acc", "Lever", "WRACC", "SupDif"},
    {"Cos", "Strength"},
    {"Cover", "Sup"},
    {"Spec", "FPR"},
    {"Dep", "Gini", "Fisher"},
]


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance criterion {criterion}: {detail}")
    return ok


def mutag_path():
    env = os.environ.get("PATCLASS_MUTAG")
    if env and Path(env).exists():
        return Path(env)
    local = Path(__file__).resolve().parent.parent / "data" / "mutag_graph.txt"
    return local if local.exists() else None


MUTAG_SKIP = ("MUTAG dataset not available; place the SPMF-format file at "
              "data/mutag_graph.txt or point PATCLASS_MUTAG at it (see README)")


# ---------------------------------------------------------------------------
# Criterion 1 — property-flag reproduction at n = 10, runtime < 10 s.
# ---------------------------------------------------------------------------

def _convention_attributable(rep):
    """A deviation explained by a +-inf/0 convention shows an infinite score
    in its counterexample (finite interior ties are not attributable)."""
    if rep.counterexample_scores is None:
        return False
    return any(math.isinf(s) for s in rep.counterexample_scores)


def test_c1_property_flags():
    t0 = time.perf_counter()
    reports = properties.property_matrix(10)
    elapsed = time.perf_counter() - t0
    unexplained = []
    attributable = []
    for rep in reports:
        if (rep.measure, rep.property) == COLSTR_JU:
            continue  # asserted separately as a strict expected failure
        if rep.matches_declared():
            continue
        (attributable if _convention_attributable(rep) else unexplained).append(rep)
    csv_text = properties.properties_csv(reports)
    listed = [line for line in csv_text.strip().splitlines() if line.endswith(",0")]
    ok = (not unexplained and not attributable and elapsed < 10.0
          and len(reports) == 38 * 4)
    assert report(
        1, ok,
        f"{len(reports) - 1}/152 cells reproduce the declared flag table exactly "
        f"(1 documented deviation: ColStr/Jumpiness), {elapsed:.1f}s"), (
        unexplained, attributable)
    assert len(listed) == 1  # the properties report lists the deviation


@pytest.mark.xfail(strict=True, reason=(
    "ColStr/Jumpiness: the printed formula's second denominator "
    "1 - p(P,pos) - p(neg|absent) changes sign at a = n(2-sqrt(2)); at n=10 "
    "the finite scores ColStr(6,0) = -56 < ColStr(5,0) = +9 violate the "
    "strict ordering with no +-inf/0 convention involved, so the declared "
    "Ju flag is not reproducible (see README); the corrected formula would "
    "be Acc/(1-Acc), contradicting the Co flag and the ranking blocks"))
def test_c1_colstr_jumpiness_flag():
    rep = check("ColStr", "Jumpiness", 10)
    assert rep.holds == measures.measure_info("ColStr").jumpiness


def test_c1_colstr_deviation_shape_is_stable():
    # the deviation itself is pinned: finite interior counterexample
    rep = check("ColStr", "Jumpiness", 10)
    assert not rep.holds
    s1, s2 = rep.counterexample_scores
    assert math.isfinite(s1) and math.isfinite(s2)
    c1, c2 = rep.counterexample
    assert c1.b == 0 and c2.b == 0
    assert recheck_counterexample(rep)


# ---------------------------------------------------------------------------
# Criterion 2 — appendix theorems as tests, runtime < 10 s.
# ---------------------------------------------------------------------------

def test_c2_appendix_theorems():
    t0 = time.perf_counter()
    indep = all(check_independence_equilibrium(n) for n in (5, 10, 20))
    both = [(m, ps2, cs) for (m, ps2, cs) in check_ps2_exclusivity(10)
            if ps2 and cs]
    elapsed = time.perf_counter() - t0
    ok = indep and not both and elapsed < 10.0
    assert report(
        2, ok,
        "independence<=>equilibrium holds at n=5,10,20; no measure is both "
        f"PS2 and class-symmetric (38 checked), {elapsed:.1f}s"), both


# ---------------------------------------------------------------------------
# Criterion 3 — equivalence-block reproduction, runtime < 30 s.
# ---------------------------------------------------------------------------

def _synthetic_rankings(n_datasets=3, n_patterns=200, n_graphs=40):
    rankings = {}
    for d in range(n_datasets):
        rng = np.random.default_rng(4000 + d)
        while True:
            bits = rng.random((n_graphs, n_patterns)) < rng.uniform(
                0.15, 0.5, n_patterns)
            if bits.sum(axis=0).min() >= 1:
                break
        labels = [1] * (n_graphs // 2) + [-1] * (n_graphs // 2)
        mat = footprints.FootprintMatrix(bits, labels)
        ids = list(range(n_patterns))
        rankings[f"synth{d}"] = {m: measures.rank(m, mat, ids)
                                 for m in measures.MEASURE_NAMES}
    return rankings


@pytest.fixture(scope="module")
def synthetic_blocks():
    t0 = time.perf_counter()
    blocks = rankcmp.equivalence_blocks(_synthetic_rankings())
    return blocks, time.perf_counter() - t0


def test_c3_equivalence_blocks(synthetic_blocks):
    blocks, elapsed = synthetic_blocks

    def min_tau(m1, m2):
        key = (min(m1, m2), max(m1, m2))
        return blocks.min_tau[key]

    intra_exact = all(
        min_tau(m1, m2) == 1.0
        for blk in REFERENCE_BLOCKS for m1 in blk for m2 in blk if m1 < m2)
    cross_hits = []
    for (m1, m2), t in blocks.min_tau.items():
        if t != 1.0:
            continue
        same_block = any(m1 in blk and m2 in blk for blk in REFERENCE_BLOCKS)
        if not same_block and (m1, m2) not in ENTROPY_BLOCK_PAIRS:
            cross_hits.append((m1, m2))
    ok = intra_exact and not cross_hits and elapsed < 30.0
    assert report(
        3, ok,
        "six blocks intra-exact (min tau = 1) on 3x200 random footprints; no "
        "undocumented cross-block pair reaches tau 1 (Entropy/{Dep,Gini,Fisher} "
        f"merge expected, see notes), {elapsed:.1f}s"), cross_hits


@pytest.mark.xfail(strict=True, reason=(
    "Entropy is mathematically rank-equivalent to Dep/Gini/Fisher on "
    "balanced classes (all strictly increasing in |p(pos|P)-0.5| with equal "
    "tie sets), so min tau = 1 on every balanced dataset; the reference "
    "block table separates Entropy, which exact scoring cannot (see README)"))
def test_c3_entropy_outside_block_six(synthetic_blocks):
    blocks, _ = synthetic_blocks
    for (m1, m2) in ENTROPY_BLOCK_PAIRS:
        assert blocks.min_tau[(m1, m2)] != 1.0


# ---------------------------------------------------------------------------
# Criterion 4 — miner completeness vs brute force, runtime < 60 s.
# ---------------------------------------------------------------------------

def test_c4_miner_completeness():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    graphs = []
    for i in range(50):
        nv = rng.randint(2, 6)
        g = random_graph(rng, nv, 0.5, 2, 2, graph_id=i)
        while not g.edges:
            g = random_graph(rng, nv, 0.5, 2, 2, graph_id=i)
        graphs.append(g)
    ds = graphdata.GraphDataset(tuple(graphs))
    mined = miner.mine_frequent(ds, min_support=1)
    expected = {}
    for g in ds:
        for form, sub in connected_subgraph_classes(g).items():
            expected.setdefault(form, sub)
    got = {graph_canonical_form(p.to_graph()) for p in mined}
    sets_equal = got == set(expected)
    supports_ok = all(p.support == graph_support(p, ds) for p in mined)
    elapsed = time.perf_counter() - t0
    ok = sets_equal and supports_ok and elapsed < 60.0
    assert report(
        4, ok,
        f"mine_frequent(min_support=1) = brute-force classes "
        f"({len(mined)} patterns over 50 random graphs), supports match "
        f"isomorphism recounts, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 5 — clustering invariants (+ MUTAG reduction when available).
# ---------------------------------------------------------------------------

def test_c5_threshold_zero_and_coarsening():
    rng = np.random.default_rng(77)
    n_graphs, base_p = 30, 25
    base = rng.random((n_graphs, base_p)) < rng.uniform(0.2, 0.6, base_p)
    dup = base[:, rng.integers(0, base_p, 35)]
    bits = np.hstack([base, dup])
    bits[0] = True
    labels = [1] * 15 + [-1] * 15
    mat = footprints.FootprintMatrix(bits, labels)
    ids = list(range(mat.n_patterns))
    dist = clusterer.manhattan_matrix(mat, ids)
    dendro = clusterer.agglomerate_complete(dist)
    zero_cut = cut(dendro, 0, dist)
    groups = footprints.distinct_footprint_groups(mat)
    zero_ok = (len(zero_cut.representatives) == len(groups)
               and [list(c) for c in zero_cut.clusters] == groups)
    prev = None
    monotone = True
    for pct in [i / 10 for i in range(11)]:
        cur = cut(dendro, math.floor(pct * n_graphs), dist)
        if prev is not None:
            cur_sets = [set(c) for c in cur.clusters]
            if not all(any(set(small) <= big for big in cur_sets)
                       for small in prev.clusters):
                monotone = False
        prev = cur
    ok = zero_ok and monotone and len(prev.clusters) == 1
    assert report(
        5, ok,
        f"threshold-0 representatives = {len(groups)} distinct footprints; "
        "monotone coarsening across the 0..100% sweep")


@pytest.mark.skipif(mutag_path() is None, reason=MUTAG_SKIP)
def test_c5_mutag_reduction():
    ds = graphdata.parse_spmf(mutag_path().read_text())
    if ds.n_pos != ds.n_neg:
        ds = graphdata.balance_undersample(ds, seed=0)
    mined = miner.mine_frequent(ds, min_support=1, max_edges=6,
                                max_patterns=20000)
    mat = footprints.build_matrix(mined, ds)
    groups = footprints.distinct_footprint_groups(mat)
    reduction = 1.0 - len(groups) / mat.n_patterns
    ok = reduction >= 0.85
    assert report(
        5, ok,
        f"MUTAG threshold-0 reduction {reduction:.1%} >= 85% "
        f"({mat.n_patterns} patterns -> {len(groups)} footprints)")


def test_c5_mutag_stats():
    path = mutag_path()
    if path is None:
        pytest.skip(MUTAG_SKIP)
    ds = graphdata.parse_spmf(path.read_text())
    st = graphdata.dataset_stats(ds)
    ok = (abs(st.avg_vertices - 14.58) <= 0.01
          and abs(st.avg_edges - 19.79) <= 0.01)
    assert report(
        5, ok,
        f"MUTAG stats avg_vertices={st.avg_vertices:.2f} (14.58 +- 0.01), "
        f"avg_edges={st.avg_edges:.2f} (19.79 +- 0.01)")


# ---------------------------------------------------------------------------
# Criterion 6 — ranking comparators vs oracles.
# ---------------------------------------------------------------------------

def test_c6_tau_against_quadratic_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        s = int(rng.integers(2, 201))
        a = rng.permutation(s)
        b = rng.permutation(s)
        tau = rankcmp.kendall_tau(a.tolist(), b.tolist())
        # independent O(s^2) scan: sign agreement over all pairs
        pa = np.empty(s, dtype=np.int64)
        pa[a] = np.arange(s)
        pb = np.empty(s, dtype=np.int64)
        pb[b] = np.arange(s)
        da = np.sign(pa[:, None] - pa[None, :])
        db = np.sign(pb[:, None] - pb[None, :])
        agree = (da * db)[np.triu_indices(s, k=1)].sum()
        oracle = agree / (s * (s - 1) / 2)
        worst = max(worst, abs(tau - oracle))
    ok = worst <= 1e-12
    assert report(6, ok, f"tau = O(s^2) pair-scan oracle on 1000 pairs "
                         f"(s <= 200), max |diff| = {worst:.2e}")


def test_c6_rbo_term_by_term_and_monotonicity():
    rng = random.Random(123)
    worst = 0.0
    for trial in range(1000):
        s = rng.randint(1, 200 if trial % 5 == 0 else 40)
        universe = list(range(2 * s + 4))
        rng.shuffle(universe)
        a = universe[:s]
        rng.shuffle(universe)
        b = universe[:s]
        for p in (0.5, 0.9, 0.98):
            got = rankcmp.rbo(a, b, p=p, depth=s)
            want = naive_rbo(a, b, p, s)
            worst = max(worst, abs(got - want))
    mono_ok = True
    for trial in range(1000):
        s = rng.randint(2, 60)
        universe = list(range(s))
        rng.shuffle(universe)
        cut_at = rng.randint(1, s - 1)
        for p in (0.5, 0.9, 0.98):
            if not rbo_prefix_monotonicity_check(universe[:cut_at],
                                                 universe, p):
                mono_ok = False
    ok = worst <= 1e-12 and mono_ok
    assert report(
        6, ok,
        f"RBO = term-by-term sum (max |diff| = {worst:.2e} <= 1e-12); prefix "
        "monotonicity on 1000 prefix pairs x p in {0.5, 0.9, 0.98}")


# ---------------------------------------------------------------------------
# Criterion 7 — Shapley axioms and sampling accuracy, runtime < 60 s.
# ---------------------------------------------------------------------------

def _random_table_game(rng, ids):
    import itertools
    table = {frozenset(): 0.0}
    for r in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            table[frozenset(combo)] = rng.random()
    return table


def test_c7_shapley_axioms_and_sampling():
    t0 = time.perf_counter()
    rng = random.Random(31337)
    efficiency_ok = symmetry_ok = dummy_ok = True
    for trial in range(30):
        k = rng.randint(2, 8)
        ids = list(range(k))
        table = _random_table_game(rng, ids)
        # symmetrize players 0 and 1, make player k-1 a dummy
        if k >= 3:
            for s in list(table):
                if 0 in s and 1 not in s:
                    mirrored = frozenset((s - {0}) | {1})
                    avg = (table[s] + table[mirrored]) / 2
                    table[s] = table[mirrored] = avg
            for s in list(table):
                if k - 1 in s:
                    table[s] = table[s - {k - 1}]
        f = shapley.CachedCharacteristic(batch(lambda s, t=table: t[frozenset(s)]))
        values = shapley.exact_shapley(ids, f)
        total = sum(values.values())
        full = table[frozenset(ids)]
        if abs(total - full) > 1e-9:
            efficiency_ok = False
        if k >= 3:
            if abs(values[0] - values[1]) > 1e-9:
                symmetry_ok = False
            if abs(values[k - 1]) > 1e-9:
                dummy_ok = False
    # sampled accuracy on an 8-player game at 2000 permutations
    ids = list(range(8))
    table = _random_table_game(random.Random(4242), ids)
    f = shapley.CachedCharacteristic(batch(lambda s: table[frozenset(s)]))
    exact = shapley.exact_shapley(ids, f)
    est = shapley.sampled_shapley(ids, f, 2000, seed=7)
    max_err = max(abs(est.values[pid] - exact[pid]) for pid in ids)
    elapsed = time.perf_counter() - t0
    ok = (efficiency_ok and symmetry_ok and dummy_ok and max_err <= 0.05
          and elapsed < 60.0)
    assert report(
        7, ok,
        f"efficiency to 1e-9, symmetry, dummy on 30 random games (<= 8 "
        f"players); sampled max error {max_err:.3f} <= 0.05 at 2000 "
        f"permutations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 8 — end-to-end behavioral reproduction on planted patterns.
# ---------------------------------------------------------------------------

def planted_matrix(seed=0):
    """100 balanced graphs; 5 planted discriminative patterns among 200 noise.

    Planted pattern k covers its own 10 positives plus 2 negatives (strong
    and jointly necessary). 80 noise columns are positive-only with tiny
    support from a fixed 15-graph pool (jumping bait that tops GR but carries
    almost no skill); 120 noise columns have small support on both sides.
    """
    rng = np.random.default_rng(seed)
    n = 100
    labels = [1] * 50 + [-1] * 50
    cols = []
    for k in range(5):
        col = np.zeros(n, dtype=bool)
        col[10 * k: 10 * k + 10] = True
        col[50 + 2 * k: 50 + 2 * k + 2] = True
        cols.append(col)
    pool = np.array([10 * k + j for k in range(5) for j in range(3)])
    for _ in range(80):
        col = np.zeros(n, dtype=bool)
        size = rng.integers(1, 3)
        col[rng.choice(pool, size=size, replace=False)] = True
        cols.append(col)
    for _ in range(120):
        col = np.zeros(n, dtype=bool)
        a = rng.integers(1, 5)
        b = rng.integers(1, 5)
        col[rng.choice(50, size=a, replace=False)] = True
        col[50 + rng.choice(50, size=b, replace=False)] = True
        cols.append(col)
    return footprints.FootprintMatrix(np.stack(cols, axis=1), labels)


def test_c8_planted_pattern_reproduction():
    t0 = time.perf_counter()
    mat = planted_matrix()
    ids = list(range(mat.n_patterns))
    dist = clusterer.manhattan_matrix(mat, ids)
    dendro = clusterer.agglomerate_complete(dist)
    reps = list(cut(dendro, 0, dist).representatives)
    assert all(pid in reps for pid in range(5))

    gold = shapley.gold_standard(shapley.performance_characteristic(mat, k=3, seed=0),
                                 reps, seed=0, n_permutations=30)
    top10 = gold.ranking.pattern_ids[:10]
    planted_in_top10 = all(pid in top10 for pid in range(5))

    s_grid = [1, 2, 5, 10, 20, 40, 60, 80, 100]

    def f1_curve(order):
        curve = {}
        for pct in s_grid:
            s = max(1, math.ceil(pct / 100 * len(reps)))
            view = classify.FeatureView.from_matrix(mat, list(order[:s]))
            curve[pct] = classify.cross_validate(view, k=3, seed=0).f1
        return curve

    gold_curve = f1_curve(gold.ranking.pattern_ids)

    def reach_pct(curve):
        """Smallest grid s where the measure is within 0.02 of the gold
        curve at the same s; None if never."""
        for pct in s_grid:
            if curve[pct] >= gold_curve[pct] - 0.02:
                return pct
        return None

    curves = {m: f1_curve(measures.rank(m, mat, reps).pattern_ids)
              for m in ("AbsSupDif", "Sup", "GR")}
    reach = {m: reach_pct(c) for m, c in curves.items()}
    fast_ok = (reach["AbsSupDif"] is not None and reach["AbsSupDif"] <= 20
               and reach["Sup"] is not None and reach["Sup"] <= 20)
    gr_reach = reach["GR"]
    gr_slower = gr_reach is None or (gr_reach > 20
                                     and gr_reach > reach["AbsSupDif"]
                                     and gr_reach > reach["Sup"])
    elapsed = time.perf_counter() - t0
    ok = planted_in_top10 and fast_ok and gr_slower
    assert report(
        8, ok,
        f"gold top-10 holds all 5 planted patterns; AbsSupDif reaches the "
        f"gold F1 curve at {reach['AbsSupDif']}%, Sup at {reach['Sup']}% "
        f"(both <= 20%), GR at {gr_reach or '>100'}%, {elapsed:.0f}s"), (
        top10, reach, gold_curve, curves)


# ---------------------------------------------------------------------------
# Criterion 9 — end-to-end determinism of the pipeline command.
# ---------------------------------------------------------------------------

def test_c9_pipeline_determinism(tmp_path):
    from test_cli import spmf_fixture
    data = tmp_path / "toy.spmf"
    data.write_text(spmf_fixture(seed=5, n=16))
    outputs = []
    for run in ("a", "b"):
        cfg = RunConfig()
        cfg.dataset = (str(data),)
        cfg.out = str(tmp_path / run)
        cfg.max_edges = 3
        cfg.threshold_pct = 10.0
        cfg.measures = ("Sup", "AbsSupDif", "GR", "Spec")
        cfg.k_folds = 4
        cfg.seed = 3
        cfg.validate()
        run_pipeline(cfg)
        outputs.append(tmp_path / run)
    names = sorted(p.name for p in outputs[0].iterdir() if p.suffix != ".json")
    identical = all((outputs[0] / n).read_bytes() == (outputs[1] / n).read_bytes()
                    for n in names)
    summaries = []
    for out in outputs:
        payload = json.loads((out / "summary.json").read_text())
        payload.pop("timings")
        summaries.append(payload)
    ok = identical and summaries[0] == summaries[1]
    assert report(
        9, ok,
        f"two pipeline runs with identical config+seeds: {len(names)} CSV/text "
        "artifacts byte-identical, summaries equal up to timings")
