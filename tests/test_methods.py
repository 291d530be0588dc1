"""The three estimators, the exact full-agreement distance, and the oracle."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from mtdist import (
    Agreement,
    LabeledMatrix,
    LabelTable,
    LabeledMergeTree,
    MergeTree,
    build_s_matrix,
    classify_agreement,
    elm_distance,
    errors,
    evaluate_configuration,
    full_agreement_distance,
    greedy_distance,
    harness,
    induced_matrix,
    inf_norm_diff,
    methods,
    mmb_distance,
    oracle_min_objective,
    pairwise_leaf_distances,
    read_mtree_file,
    select_trim,
    unknown_to_known_distances,
)
from mtdist.methods import SMatrix

from conftest import load_example, random_pair, rescaled


# -- building blocks -------------------------------------------------------------


def test_s_matrix_example1(example1):
    a, _ = example1
    s = build_s_matrix(a, (3, 4), a.leaf_labels())
    assert s.col_labels == (1, 2, 3, 4)
    assert s.entries.tolist() == [[2, 2, 0, 1], [3, 3, 2, 0]]
    assert s.row_sums.tolist() == [5, 8]


def test_s_matrix_example3(example3):
    a, _ = example3
    s = build_s_matrix(a, (2, 3), a.leaf_labels())
    assert s.entries.tolist() == [[1, 0, 3, 3], [1, 1, 0, 1]]
    assert s.row_sums.tolist() == [7, 3]


def test_s_matrix_single_leaf():
    lt = LabeledMergeTree(
        MergeTree([1.0, 0.0, 0.2], [None, 0, 0]), LabelTable({1: 1, 2: 2})
    )
    s = build_s_matrix(lt, (1,), (1,))
    assert s.entries.tolist() == [[0.0]]
    assert s.row_sums.tolist() == [0.0]


def test_s_matrix_rejects_nonleaf(example1):
    a, _ = example1
    lt = a.with_extra_labels({99: a.tree.root})
    with pytest.raises(errors.NonLeafLabel):
        build_s_matrix(lt, (99,), lt.leaf_labels())


def test_select_trim_values_and_ties(example1, example3):
    a1, _ = example1
    s1 = build_s_matrix(a1, (3, 4), a1.leaf_labels())
    assert select_trim(s1, 1) == (3,)
    a3, _ = example3
    s3 = build_s_matrix(a3, (2, 3), a3.leaf_labels())
    assert select_trim(s3, 1) == (3,)
    tied = SMatrix((5, 6, 7), (5, 6, 7), np.zeros((3, 3)), np.array([2.0, 2.0, 2.0]))
    assert select_trim(tied, 1) == (5,)
    assert select_trim(tied, 2) == (5, 6)
    with pytest.raises(errors.KTooLarge):
        select_trim(tied, 4)


def test_unknown_to_known_distances_fixture(example1):
    a, b = example1
    up = unknown_to_known_distances(a, (3, 4), (1, 2))
    assert up.entries.tolist() == [[5, 5], [6, 6]]
    u2 = unknown_to_known_distances(b, (5,), (1, 2))
    assert u2.entries.tolist() == [[6, 6]]
    empty = unknown_to_known_distances(a, (3, 4), ())
    assert empty.entries.shape == (2, 0)


def test_pairwise_leaf_distances(example2):
    _, b = example2
    single = pairwise_leaf_distances(b, (1,))
    assert single.entries.tolist() == [[0.0]]
    both = pairwise_leaf_distances(b, (1, 2))
    assert both.entries.tolist() == [[0.0, 12.0], [12.0, 0.0]]


# -- golden outcomes --------------------------------------------------------------


def test_example1_all_methods(example1):
    a, b = example1
    r_elm = elm_distance(a, b)
    assert r_elm.distance == 0.5
    assert r_elm.trimmed == {3}
    assert r_elm.deltas == {3: 1.0}
    assert r_elm.epsilon == 0.0
    assert r_elm.matching.pairs == ((4, 5),)
    assert r_elm.induced_a.entries.tolist() == [[0, 2, 3], [2, 0, 3], [3, 3, 0]]
    assert r_elm.induced_b.entries.tolist() == [[0, 2, 3], [2, 0, 3], [3, 3, 0]]
    r_mmb = mmb_distance(a, b)
    assert r_mmb.distance == 0.5
    assert r_mmb.matching.pairs == ((4, 5),)
    assert r_mmb.matching.unmatched_a == (3,)
    r_g = greedy_distance(a, b)
    assert r_g.distance == 2.0
    assert r_g.assigned_labels == {3: 5}


def test_example2_all_methods(example2):
    a, b = example2
    r_elm = elm_distance(a, b)
    assert r_elm.distance == 0.5
    assert r_elm.trimmed == {3, 4, 5}
    assert r_elm.deltas == {3: 1.0, 4: 1.0, 5: 1.0}
    assert r_elm.induced_a.entries.tolist() == [[0, 6], [6, 0]]
    assert r_elm.induced_b.entries.tolist() == [[0, 6], [6, 0]]
    r_mmb = mmb_distance(a, b)
    assert r_mmb.distance == 0.5
    assert r_mmb.deltas == {3: 1.0, 4: 1.0, 5: 1.0}
    r_g = greedy_distance(a, b)
    assert r_g.distance == 3.0
    assert r_g.assigned_labels == {3: 2, 4: 2, 5: 2}


def test_example3_all_methods(example3):
    a, b = example3
    r_elm = elm_distance(a, b)
    assert r_elm.distance == 2.0
    assert r_elm.trimmed == {3}
    assert r_elm.epsilon == 2.0
    assert r_elm.induced_a.entries.tolist() == [[0, 1, 3], [1, 0, 3], [3, 3, 1]]
    assert r_elm.induced_b.entries.tolist() == [[0, 3, 3], [3, 2, 3], [3, 3, 1]]
    r_mmb = mmb_distance(a, b)
    assert r_mmb.distance == 0.5
    assert r_mmb.matching.pairs == ((3, 5),)
    assert r_mmb.deltas == {2: 1.0}
    r_g = greedy_distance(a, b)
    assert r_g.distance == 1.0
    assert r_g.assigned_labels == {2: 1}


def test_oracle_on_fixtures(example1, example2, example3):
    for pair, want in [(example1, 0.5), (example2, 0.5), (example3, 0.5)]:
        assert oracle_min_objective(*pair) == want


# -- full agreement ----------------------------------------------------------------


def _full_pair():
    t1 = MergeTree([3.0, 0.0, 1.0], [None, 0, 0])
    t2 = MergeTree([3.5, 0.0, 1.0], [None, 0, 0])
    la = LabelTable({1: 1, 2: 2})
    return LabeledMergeTree(t1, la), LabeledMergeTree(t2, LabelTable({1: 1, 2: 2}))


def test_full_agreement_identity(example1):
    a, _ = example1
    assert full_agreement_distance(a, a).distance == 0.0
    assert elm_distance(a, a).distance == 0.0
    assert mmb_distance(a, a).distance == 0.0
    assert greedy_distance(a, a).distance == 0.0


def test_full_agreement_matches_direct_subtraction():
    a, b = _full_pair()
    res = full_agreement_distance(a, b)
    want = float(np.max(np.abs(res.induced_a.entries - res.induced_b.entries)))
    assert res.distance == want == 0.5
    assert res.deltas == {}


def test_full_agreement_requires_equal_labels(example1):
    a, b = example1
    with pytest.raises(errors.NotFullAgreement):
        full_agreement_distance(a, b)


def test_methods_dispatch_full_agreement():
    a, b = _full_pair()
    want = full_agreement_distance(a, b).distance
    assert elm_distance(a, b).distance == want
    assert mmb_distance(a, b).distance == want
    assert greedy_distance(a, b).distance == want


# -- disagreement ------------------------------------------------------------------


def _disjoint_pair():
    a, b = random_pair(99, max_vertices=9, label_fraction=0.0)
    assert classify_agreement(a, b).case is Agreement.DISAGREEMENT
    return a, b


def test_greedy_refuses_disagreement():
    a, b = _disjoint_pair()
    with pytest.raises(errors.DisagreementUnsupported):
        greedy_distance(a, b)


def test_heuristics_handle_disagreement():
    a, b = _disjoint_pair()
    for fn in (elm_distance, mmb_distance):
        res = fn(a, b)
        assert res.distance >= 0.0
        assert res.distance >= res.epsilon


def test_disagreement_empty_tree_rejected():
    lone = LabeledMergeTree(MergeTree([0.0], [None]), LabelTable({}))
    a, _ = _disjoint_pair()
    with pytest.raises(errors.DisagreementEmptyTree):
        elm_distance(lone, a)
    with pytest.raises(errors.DisagreementEmptyTree):
        mmb_distance(a, lone)
    # the baseline refuses every disjoint-label pair with its own error
    with pytest.raises(errors.DisagreementUnsupported):
        greedy_distance(lone, a)


# -- properties ---------------------------------------------------------------------


def _methods_for(info_case):
    if info_case is Agreement.DISAGREEMENT:
        return (elm_distance, mmb_distance)
    return (elm_distance, mmb_distance, greedy_distance)


@pytest.mark.parametrize("seed", range(25))
def test_distance_dominates_parts_and_symmetry(seed):
    fraction = 0.0 if seed % 5 == 4 else 0.5
    a, b = random_pair(seed, max_vertices=13, label_fraction=fraction)
    case = classify_agreement(a, b).case
    for fn in _methods_for(case):
        r = fn(a, b)
        assert r.distance >= 0.0
        assert r.distance >= r.epsilon
        for delta in r.deltas.values():
            assert r.distance >= 0.5 * delta - 1e-12
        assert fn(b, a).distance == r.distance


@pytest.mark.parametrize("seed", range(20))
def test_reported_configuration_reproduces_distance(seed):
    a, b = random_pair(seed, max_vertices=11)
    r1 = elm_distance(a, b)
    assert (
        evaluate_configuration(a, b, removed=sorted(r1.trimmed), pairs=r1.matching.pairs)
        == r1.distance
    )
    r2 = mmb_distance(a, b)
    removed = r2.matching.unmatched_a + r2.matching.unmatched_b
    assert (
        evaluate_configuration(a, b, removed=removed, pairs=r2.matching.pairs)
        == r2.distance
    )


def _oracle_eligible_pairs(count, *, max_vertices=9, start_seed=0, budget=6):
    seed = start_seed
    found = 0
    while found < count:
        fraction = 0.0 if seed % 4 == 3 else 0.5
        a, b = random_pair(seed, max_vertices=max_vertices, label_fraction=fraction)
        info = classify_agreement(a, b)
        if info.n_unknown_a + info.n_unknown_b <= budget:
            yield a, b
            found += 1
        seed += 1


def test_oracle_lower_bounds_heuristics():
    for a, b in _oracle_eligible_pairs(40):
        o = oracle_min_objective(a, b)
        assert o <= elm_distance(a, b).distance + 1e-12
        assert o <= mmb_distance(a, b).distance + 1e-12


def test_oracle_guard():
    a, b = random_pair(1, max_vertices=31)
    info = classify_agreement(a, b)
    assert info.n_unknown_a + info.n_unknown_b > 8
    with pytest.raises(errors.TooLarge):
        oracle_min_objective(a, b)


def test_oracle_identical_trees(example2):
    a, _ = example2
    assert oracle_min_objective(a, a) == 0.0


@pytest.mark.parametrize("seed", range(12))
def test_shift_invariance_and_scale_covariance(seed):
    a, b = random_pair(seed, max_vertices=13)
    case = classify_agreement(a, b).case
    for fn in _methods_for(case):
        base = fn(a, b)
        shifted = fn(rescaled(a, add=0.37), rescaled(b, add=0.37))
        assert abs(shifted.distance - base.distance) < 1e-9
        scaled = fn(rescaled(a, mul=2.0), rescaled(b, mul=2.0))
        assert scaled.distance == 2.0 * base.distance
        assert scaled.trimmed == base.trimmed
        assert scaled.matching.pairs == base.matching.pairs


# -- one epsilon per pair ---------------------------------------------------------


def _shared_eps_pairs():
    """FULL, PARTIAL (golden fixtures, random, either pivot side) and
    DISAGREEMENT pairs."""
    full = _full_pair()
    out = [full, (full[0], full[0])]
    out += [load_example(n) for n in (1, 2, 3)]
    for seed in range(4):
        a, b = random_pair(seed, max_vertices=31)
        out += [(a, b), (b, a)]
    out.append(_disjoint_pair())
    return out


def _run(step, *args):
    """The step's result, or the type of the error it raised."""
    try:
        return step(*args)
    except errors.MtdistError as exc:
        return type(exc)


def _assert_same(got, want):
    """Two ``_run`` outcomes agree: the same error type, or the same result."""
    if isinstance(want, type):
        assert got is want
        return
    assert got.distance == want.distance
    assert got.epsilon == want.epsilon
    assert got.deltas == want.deltas
    assert got.matching == want.matching
    assert got.assigned_labels == want.assigned_labels


def _expected_induced(r, a, b) -> tuple[LabeledMatrix, LabeledMatrix]:
    """``induced_matrix`` over r's sorted unified labels on each side: a
    matched side-B label stands under its side-A partner's name, and a
    granted label sits on its receiving leaf of the other tree."""
    to_b = {la: lb for lb, la in r.relabeling.items()}
    a_labels = dict(a.labels.items())
    for label, anchor in r.assigned_labels.items():
        if label in a_labels:
            b = b.with_extra_labels({label: b.labels.vertex_of(anchor)})
        else:
            a = a.with_extra_labels({label: a.labels.vertex_of(anchor)})
    unified = sorted(
        set(classify_agreement(a, b).known) | set(to_b) | set(r.assigned_labels)
    )
    return induced_matrix(a, unified), induced_matrix(b, [to_b.get(l, l) for l in unified])


@pytest.mark.parametrize("index", range(len(_shared_eps_pairs())))
def test_shared_pair_steps_equal_fresh_calls(index):
    a, b = _shared_eps_pairs()[index]
    steps = harness.PAIR_STEPS
    fresh = {m: _run(harness.METHODS[m], a, b) for m in steps}
    for order in (list(steps), list(reversed(steps))):
        pair = methods._Pair(a, b)
        for m in order:
            _assert_same(_run(steps[m], pair), fresh[m])


@pytest.mark.parametrize("index", range(len(_shared_eps_pairs())))
def test_induced_matrices_built_on_read_equal_induced_matrix(index):
    a, b = _shared_eps_pairs()[index]
    pair = methods._Pair(a, b)
    for m, step in harness.PAIR_STEPS.items():
        r = _run(step, pair)
        if isinstance(r, type):
            continue
        want_a, want_b = _expected_induced(r, a, b)
        assert r.induced_a.row_labels == r.induced_a.col_labels == want_a.row_labels
        assert r.induced_b.row_labels == want_a.row_labels
        assert np.array_equal(r.induced_a.entries, want_a.entries)
        assert np.array_equal(r.induced_b.entries, want_b.entries)
        assert inf_norm_diff(r.induced_a, r.induced_b) == r.epsilon


def _arrays_in(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays_in(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays_in(item)


@pytest.mark.parametrize("index", range(len(_shared_eps_pairs())))
def test_pair_keeps_no_matrix_after_every_step(index):
    pair = methods._Pair(*_shared_eps_pairs()[index])
    for step in harness.PAIR_STEPS.values():
        _run(step, pair)
    held = list(_arrays_in(list(vars(pair).values())))
    assert all(arr.ndim < 2 for arr in held)


_PARTIAL_PAIRS = [
    pair for pair in _shared_eps_pairs() if classify_agreement(*pair).case is Agreement.PARTIAL
]


@pytest.mark.parametrize("index", range(len(_PARTIAL_PAIRS)))
def test_lone_estimator_gathers_known_block_once_and_extra_rows(index, monkeypatch):
    """Per side: K^2 cells for the known block, X * (K + X) for the X
    matched or granted labels' rows; never the full (K + X)^2 block."""
    a, b = _PARTIAL_PAIRS[index]
    info = classify_agreement(a, b)
    assert a.tree is not b.tree
    cells: dict[int, int] = {}
    inside = []
    lca_many, induced = MergeTree.lca_many, methods._Pair.induced

    def counting_lca_many(tree, us, vs):
        if inside:
            size = np.broadcast(np.asarray(us), np.asarray(vs)).size
            cells[id(tree)] = cells.get(id(tree), 0) + size
        return lca_many(tree, us, vs)

    def flagged_induced(pair, extra):
        inside.append(True)
        try:
            return induced(pair, extra)
        finally:
            inside.pop()

    monkeypatch.setattr(MergeTree, "lca_many", counting_lca_many)
    monkeypatch.setattr(methods._Pair, "induced", flagged_induced)
    k = len(info.known)
    for m in harness.PAIR_STEPS:
        cells.clear()
        r = harness.METHODS[m](a, b)
        x = len(r.relabeling) + len(r.assigned_labels)
        want = k * k + x * (k + x)
        assert cells == {id(a.tree): want, id(b.tree): want}


def test_oracle_result_carries_empty_matrices(example1):
    r = harness.METHODS["oracle"](*example1)
    for m in (r.induced_a, r.induced_b):
        assert m.row_labels == m.col_labels == ()
        assert m.entries.shape == (0, 0)


# -- row blocks --------------------------------------------------------------------


def _gaps_3d(d1, d2):
    """Squared row gaps from the full n1 x n2 x K broadcast."""
    diff = d1[:, None, :] - d2[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _closest_per_leaf(dmat, ds):
    """Greedy's receiver search one pivot leaf at a time."""
    out = []
    for drow in dmat:
        gaps = ds - drow[None, :]
        out.append(int(np.argmin(np.einsum("ij,ij->i", gaps, gaps))))
    return out


def _gap_inputs():
    """Random shapes with one row and K = 1 among them; the integer-valued
    inputs make ties, so the argmin's tie-break is exercised too."""
    rng = np.random.default_rng(7)
    shapes = [(1, 1, 1), (1, 9, 1), (6, 1, 4), (5, 8, 1), (1, 12, 30), (10, 100, 200)]
    shapes += [tuple(int(x) for x in rng.integers(1, 40, size=3)) for _ in range(20)]
    for i, (n1, n2, k) in enumerate(shapes):
        if i % 2:
            yield (rng.integers(0, 4, (n, k)).astype(float) for n in (n1, n2))
        else:
            yield (rng.normal(size=(n, k)) * 10.0 for n in (n1, n2))


@pytest.mark.parametrize("cap", [1, 7, methods._BLOCK_CELLS])
def test_row_gaps_equal_broadcast_and_per_leaf_argmin(cap, monkeypatch):
    monkeypatch.setattr(methods, "_BLOCK_CELLS", cap)
    for d1, d2 in _gap_inputs():
        got = methods._row_gaps(d1, d2)
        assert np.array_equal(got, _gaps_3d(d1, d2))
        assert np.argmin(got, axis=1).tolist() == _closest_per_leaf(d1, d2)


@pytest.mark.parametrize("cap", [1, 5])
def test_blocked_epsilon_keeps_every_result(cap, monkeypatch):
    """Capped row blocks change no result, and no gather inside
    ``_Pair.induced`` covers more than the cap or one row."""
    pairs = _shared_eps_pairs()
    steps = harness.PAIR_STEPS
    want = [{m: _run(step, methods._Pair(a, b)) for m, step in steps.items()} for a, b in pairs]
    sizes, inside = [], []
    lca_many, induced = MergeTree.lca_many, methods._Pair.induced

    def recording_lca_many(tree, us, vs):
        if inside:
            size = np.broadcast(np.asarray(us), np.asarray(vs)).size
            sizes.append((size, np.asarray(vs).size))
        return lca_many(tree, us, vs)

    def flagged_induced(pair, extra):
        inside.append(True)
        try:
            return induced(pair, extra)
        finally:
            inside.pop()

    monkeypatch.setattr(methods, "_BLOCK_CELLS", cap)
    monkeypatch.setattr(MergeTree, "lca_many", recording_lca_many)
    monkeypatch.setattr(methods._Pair, "induced", flagged_induced)
    for (a, b), expected in zip(pairs, want):
        pair = methods._Pair(a, b)
        for m, step in steps.items():
            _assert_same(_run(step, pair), expected[m])
    assert sizes
    assert all(size <= max(cap, row) for size, row in sizes)


def test_elm_on_large_trees_holds_no_pair_sized_tensor(tmp_path):
    """On two fully labeled trees of about 2,000 leaves, elm allocates far
    less than the 166 MB it took with an n1 x n2 x K difference tensor
    behind the matching weights.  Leaf tables are built beforehand: they
    belong to the trees, not to the pair."""
    files = harness.cmd_gen(tmp_path, max_vertices=4095, count=6, label_fraction=1.0, seed=0)
    a, b = (read_mtree_file(files[i]) for i in (2, 5))
    for lt in (a, b):
        lt.tree._leaf_table()
    tracemalloc.start()
    try:
        elm_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
