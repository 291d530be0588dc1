"""The three estimators, the exact full-agreement distance, and the oracle."""

from __future__ import annotations

import functools
import itertools
import math
import re
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
    oracle_distance,
    oracle_min_objective,
    pairwise_leaf_distances,
    read_mtree_file,
    select_trim,
    unknown_to_known_distances,
)
from mtdist.methods import SMatrix

from conftest import load_example, oracle_pairs, random_pair, rescaled


# -- building blocks -------------------------------------------------------------


def _leaf_index_sets(tree):
    """(rows, cols) leaf sets: some leaves (one twice) against all of them,
    so row vertices recur among the columns, the reverse, and empty sets."""
    leaves = np.asarray(tree.leaves, dtype=np.int64)
    some = np.random.default_rng(0).choice(leaves, size=min(7, len(leaves)), replace=False)
    some = np.r_[some, some[:1]]
    none = leaves[:0]
    return [(some, leaves), (leaves, some), (none, leaves), (some, none), (none, none)]


@pytest.mark.parametrize("max_vertices, dtype", [(41, np.uint8), (601, np.uint16)])
def test_leaf_reads_equal_lca_many_and_path_distance_many(max_vertices, dtype):
    """The trees' leaf reads give ``lca_many``'s scalars and
    ``path_distance_many``'s distances byte for byte."""
    for lt in random_pair(0, max_vertices=max_vertices):
        tree = lt.tree
        for rows, cols in _leaf_index_sets(tree):
            p, q = tree.leaf_rows(rows), tree.leaf_rows(cols)
            pairs = (
                (tree.leaf_scalars(p, q), tree.scalars[tree.lca_many(rows[:, None], cols[None, :])]),
                (tree.leaf_distances(p, q), tree.path_distance_many(rows[:, None], cols[None, :])),
            )
            for got, want in pairs:
                assert (got.dtype, got.shape) == (want.dtype, (len(rows), len(cols)))
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert tree._leaf_lca[2].dtype == dtype


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
    lt = LabeledMergeTree(a.tree, LabelTable({**dict(a.labels.items()), 99: a.tree.root}))
    with pytest.raises(errors.NonLeafLabel):
        build_s_matrix(lt, (99,), lt.leaf_labels())
    # a caller-built column list is checked label by label
    with pytest.raises(errors.NonLeafLabel):
        build_s_matrix(lt, lt.leaf_labels()[:1], list(lt.leaf_labels()) + [99])


@pytest.mark.parametrize("seed", range(6))
def test_s_matrix_over_the_leaf_index_equals_a_caller_built_list(seed, monkeypatch):
    """The tree's own ``leaf_labels()`` tuple takes its vertices from the
    leaf index, with no per-label leaf check; the same labels in a list are
    checked one by one, and the two S matrices agree bit for bit."""
    lt, _ = random_pair(seed, max_vertices=13)
    leaves = lt.leaf_labels()
    rows = leaves[seed % 3 :: 2]
    checked = build_s_matrix(lt, rows, list(leaves))
    calls = []
    is_leaf = MergeTree.is_leaf
    monkeypatch.setattr(MergeTree, "is_leaf", lambda t, v: calls.append(v) or is_leaf(t, v))
    indexed = build_s_matrix(lt, rows, leaves)
    assert len(calls) == len(rows)  # the rows alone
    assert methods._require_leaves(lt, leaves) is lt.leaf_index()[2]
    assert (indexed.row_labels, indexed.col_labels) == (checked.row_labels, checked.col_labels)
    assert indexed.entries.tobytes() == checked.entries.tobytes()
    assert indexed.row_sums.tobytes() == checked.row_sums.tobytes()


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


def test_select_trim_refuses_a_negative_k():
    tied = SMatrix((5, 6, 7), (5, 6, 7), np.zeros((3, 3)), np.array([1.0, 2.0, 3.0]))
    assert select_trim(tied, 0) == ()
    with pytest.raises(errors.ValidationError):
        select_trim(tied, -1)  # a slice to -1 would pick every row but the last
    for k in (1.5, "1"):
        with pytest.raises(errors.ValidationError, match="trim count must be an integer"):
            select_trim(tied, k)
    assert select_trim(tied, np.int64(1)) == (5,)


def test_s_matrix_refuses_duplicate_labels(example1):
    a, _ = example1
    with pytest.raises(errors.DuplicateLabel):
        build_s_matrix(a, (3, 3), a.leaf_labels())  # select_trim would trim 3 twice
    with pytest.raises(errors.DuplicateLabel):
        build_s_matrix(a, (3,), (1, 2, 2))
    with pytest.raises(errors.DuplicateLabel):
        SMatrix((5, 5), (5,), np.zeros((2, 1)), np.zeros(2))


def test_every_label_lookup_takes_labels_by_operator_index():
    """A label is an integer by operator.index on every lookup, as LabelTable
    builds them: 2.0, "1" and [1] are refused, never read as 2 or 1."""
    lt = LabeledMergeTree(
        MergeTree([0.0, -1.0, -2.0, -3.0], [None, 0, 0, 0]), LabelTable({1: 1, 2: 2, 3: 3})
    )
    lookups = [
        lambda l: lt.labels.vertex_of(l),
        lambda l: lt.labels.vertices_of([1, l]),
        lambda l: unknown_to_known_distances(lt, [l], [1]),
        lambda l: pairwise_leaf_distances(lt, [l, 1]),
        lambda l: build_s_matrix(lt, [l], [1, 2]),
        lambda l: induced_matrix(lt, [3, l]),
    ]
    for lookup, bad in itertools.product(lookups, (2.0, "1", [1], 99)):
        with pytest.raises(errors.UnknownLabel, match=re.escape(f"label {bad!r} ")):
            lookup(bad)
    with pytest.raises(errors.UnknownLabel, match="label 2.0 "):  # the first bad label
        lt.labels.vertices_of([1, 2.0, "1"])
    # numpy integers are labels, and come back as the vertices Python ints give
    for lookup in lookups:
        lookup(np.int64(2))
    assert lt.labels.vertex_of(np.int64(2)) == 2
    got = lt.labels.vertices_of(np.array([3, 1], dtype=np.uint8))
    assert got.dtype == np.int64 and got.tolist() == [3, 1]
    assert lt.labels.vertices_of(()).tolist() == []


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


# -- library-built inputs ---------------------------------------------------------

_ESTIMATORS = (elm_distance, mmb_distance, greedy_distance, oracle_distance)


def _cherry(scalars, labels) -> LabeledMergeTree:
    """Root 0 over leaves 1 and 2, built directly, as a library caller would."""
    return LabeledMergeTree(MergeTree(scalars, [None, 0, 0]), LabelTable(labels))


def test_pair_with_leaves_above_the_root_refused_before_any_estimator():
    good = _cherry([5.0, 1.0, 2.0], {1: 1, 2: 2})
    for estimator in _ESTIMATORS:
        with pytest.raises(errors.NonDecreasingScalar, match="vertex 1 .* is not strictly below"):
            estimator(good, _cherry([0.0, 4.0, 5.0], {1: 1, 2: 2}))


def test_pair_with_an_unlabeled_leaf_refused_before_any_estimator():
    good = _cherry([5.0, 1.0, 2.0], {1: 1, 2: 2})
    for estimator in _ESTIMATORS:
        with pytest.raises(errors.MissingLeafLabel, match="leaf 2 carries no label"):
            estimator(good, _cherry([5.0, 1.0, 2.0], {1: 1}))


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


def _centred(n: int, mul: float) -> tuple[LabeledMergeTree, LabeledMergeTree]:
    """Golden pair n moved by minus half its largest scalar, so that its
    scalars are centred on 0, then multiplied by mul."""
    pair = load_example(n)
    top = max(float(lt.tree.scalars.max()) for lt in pair)
    return tuple(rescaled(rescaled(lt, add=-top / 2), mul=mul) for lt in pair)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [-1000, -600, -520, 520, 600, 1000, 1021, "centred 1022"])
@pytest.mark.parametrize(
    "n, want", [(1, (0.5, 0.5, 2.0)), (2, (0.5, 0.5, 3.0)), (3, (2.0, 0.5, 1.0))]
)
def test_golden_distances_scale_with_every_scalar(n, want, k):
    """Scaled by 2^k, every golden distance scales exactly: profiles are
    squared and S rows summed, and neither may overflow nor underflow.
    Centred on 0 and scaled by 2^1022, twice a tree's span is past float64,
    although every scalar and distance is finite."""
    if k == "centred 1022":
        k, (a, b) = 1022, _centred(n, 2.0**1022)
    else:
        a, b = (rescaled(lt, mul=2.0**k) for lt in load_example(n))
    for estimator, d in zip((elm_distance, mmb_distance, greedy_distance), want):
        assert estimator(a, b).distance == math.ldexp(d, k)


@pytest.mark.filterwarnings("error")
def test_a_distance_past_float64_raises_non_finite_cost():
    """Centred on 0 at +-1.7e308, golden pair 1 has greedy's distance 2 times
    1.7e308 / 1.5, about 2.27e308: refused with NonFiniteCost.  elm and mmb
    still return 0.5 times that factor."""
    mul = 1.7e308 / 1.5
    a, b = _centred(1, mul)
    with pytest.raises(errors.NonFiniteCost):
        greedy_distance(a, b)
    for estimator in (elm_distance, mmb_distance):
        assert math.isclose(estimator(a, b).distance, 0.5 * mul)
    # each tree's span is in range, but one lies about 3.4e308 above the other
    a, b = (rescaled(rescaled(lt, mul=2.0**990), add=at) for lt, at in
            zip(load_example(1), (-1.7e308, 1.7e308)))
    for estimator in (elm_distance, mmb_distance, greedy_distance, oracle_min_objective):
        with pytest.raises(errors.NonFiniteCost):
            estimator(a, b)


@pytest.mark.filterwarnings("error")
def test_a_single_vertex_tree_bounds_the_pair_scale():
    """The other tree's half span, 1e-160, asks for a scale of about 2^1028,
    which would take the single vertex at 1.0 past float64; the pair scales
    by 2^1022 at most and reaches the typed refusal of a leafless tree."""
    a = LabeledMergeTree(MergeTree([1.0], [None]), LabelTable({1: 0}))
    b = LabeledMergeTree(MergeTree([2e-160, 1e-160, 0.0], [None, 0, 0]), LabelTable({1: 1, 2: 2}))
    for estimator in (elm_distance, mmb_distance, oracle_min_objective):
        with pytest.raises(errors.DisagreementEmptyTree):
            estimator(a, b)
    with pytest.raises(errors.DisagreementUnsupported):
        greedy_distance(a, b)


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


def _full_pairs():
    """FULL pairs: identical trees, equal label sets on different scalars,
    labels inside the tree, and leafless trees."""
    lone = LabeledMergeTree(MergeTree([0.0], [None]), LabelTable({4: 0}))
    tree = MergeTree([3.0, 2.0, 0.0, 1.0, 0.5], [None, 0, 1, 1, 0])
    inner = LabeledMergeTree(tree, LabelTable({2: 2, 3: 3, 5: 4, 9: 1}))
    out = [_full_pair(), (lone, lone), (inner, rescaled(inner, mul=1.5, add=0.25))]
    for n in (1, 2, 3):
        a, b = load_example(n)
        out += [(a, a), (b, rescaled(b, mul=2.0))]
    for seed in range(3):
        a, _ = random_pair(seed, max_vertices=31)
        out.append((a, rescaled(a, add=-1.0)))
    return out


@pytest.mark.parametrize("index", range(len(_full_pairs())))
def test_full_pairs_take_the_general_path_to_full_agreement_distance(index):
    a, b = _full_pairs()[index]
    assert classify_agreement(a, b).case is Agreement.FULL
    want = full_agreement_distance(a, b)
    pair = methods._Pair(a, b)
    got = [step(pair) for step in harness.PAIR_STEPS.values()]
    got += [fn(a, b) for fn in (elm_distance, mmb_distance, greedy_distance)]
    for r in got:
        for name in ("distance", "epsilon", "deltas", "matching", "relabeling", "trimmed",
                     "assigned_labels"):
            assert getattr(r, name) == getattr(want, name), name
        for m, w in ((r.induced_a, want.induced_a), (r.induced_b, want.induced_b)):
            assert m.row_labels == m.col_labels == w.row_labels
            assert np.array_equal(m.entries, w.entries)


def _equal_unknowns_pair():
    tree = MergeTree([2.0, 0.0, 0.5, 1.0], [None, 0, 0, 0])
    a = LabeledMergeTree(tree, LabelTable({1: 1, 2: 2, 3: 3}))
    b = LabeledMergeTree(rescaled(a).tree, LabelTable({1: 1, 2: 3, 4: 2}))
    return a, b


def test_elm_builds_s_only_when_it_trims(monkeypatch):
    calls = []
    build = methods.build_s_matrix
    monkeypatch.setattr(
        methods, "build_s_matrix", lambda *args: calls.append(args) or build(*args)
    )
    a, b = _equal_unknowns_pair()
    info = classify_agreement(a, b)
    assert info.case is Agreement.PARTIAL and len(info.unknown_a) == len(info.unknown_b) == 1
    for pair in [*_full_pairs(), (a, b), (b, a)]:
        r = elm_distance(*pair)
        assert calls == [] and not r.trimmed
    r = elm_distance(*load_example(1))  # two unknowns against one: trims one
    assert len(calls) == 1 and r.trimmed == {3}


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


def _evaluate_all_removed(x, y):
    """The one valid configuration of a leafless disjoint pair: every leaf of
    the other tree removed."""
    return evaluate_configuration(x, y, removed=(x.leaf_labels() or y.leaf_labels()), pairs=())


@pytest.mark.parametrize(
    "estimator",
    [elm_distance, mmb_distance, _evaluate_all_removed, oracle_distance, oracle_min_objective],
)
def test_leafless_disjoint_pair_refused_in_either_order(estimator):
    lone = LabeledMergeTree(MergeTree([0.0], [None]), LabelTable({}))
    a, _ = _disjoint_pair()
    for pair in ((lone, a), (a, lone)):
        with pytest.raises(errors.DisagreementEmptyTree) as refused:
            estimator(*pair)
        assert str(refused.value) == "cannot compare a tree with no leaves"
        with pytest.raises(errors.DisagreementUnsupported):
            greedy_distance(*pair)


def test_leafless_disjoint_pair_checks_a_configuration_before_scoring_it():
    lone = LabeledMergeTree(MergeTree([0.0], [None]), LabelTable({}))
    a, _ = _disjoint_pair()
    with pytest.raises(errors.ValidationError, match="are not the unknowns"):
        evaluate_configuration(lone, a, removed=a.leaf_labels()[1:], pairs=())


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


def test_no_estimator_solve_is_wide(monkeypatch):
    """Every ``assignment.solve`` an estimator makes has at least as many
    rows (pivot unknowns) as columns (the other tree's): the pivot has the
    more unknowns, and ``elm`` trims it down to the other's count.  Over
    pairs of all three agreement cases (a full pair solves nothing), with
    the pivot on either side and ``elm`` both trimming and not."""
    solve, shapes, trims = methods.assignment.solve, [], set()

    def recording(cost):
        shapes.append(np.shape(cost))
        return solve(cost)

    monkeypatch.setattr(methods.assignment, "solve", recording)
    for seed in range(12):
        for fraction, size in ((0.0, 9), (0.5, 13), (1.0, 13)):
            a, b = random_pair(seed, max_vertices=size, label_fraction=fraction)
            for x, y in ((a, b), (b, a)):
                for fn in _methods_for(classify_agreement(x, y).case):
                    r = fn(x, y)
                    if fn is elm_distance:
                        trims.add(bool(r.trimmed))
    assert trims == {False, True}
    assert {rows > cols for rows, cols in shapes} == {False, True}  # square and tall
    assert all(rows >= cols for rows, cols in shapes), shapes


def _renamed(m: LabeledMatrix, names: dict) -> tuple[list, bytes]:
    """``m``'s labels renamed through ``names``, then sorted, and its
    entries' bytes in that order."""
    labels = np.asarray([names.get(l, l) for l in m.row_labels], dtype=np.int64)
    order = np.argsort(labels)
    return labels[order].tolist(), m.entries[np.ix_(order, order)].tobytes()


@pytest.mark.parametrize("seed", range(30))
def test_swapping_a_and_b_mirrors_every_record(seed):
    """Each estimator's record on (b, a) mirrors its record on (a, b) bit for
    bit: the same distance, epsilon, deltas, trimmed set and grants; the
    matched pairs with their sides swapped, the unmatched sides swapped and
    the relabeling inverted; and each induced matrix equal to the swapped
    call's other one, once its matched labels go by a's names.  Pairs of
    all three agreement cases; the two calls put the pivot on either side."""
    steps = (elm_distance, mmb_distance, greedy_distance, full_agreement_distance, oracle_distance)
    for fraction, size in ((0.0, 7), (0.5, 9), (0.5, 13), (1.0, 13)):
        a, b = random_pair(seed, max_vertices=size, label_fraction=fraction)
        for fn in steps:
            r, s = _run(fn, a, b), _run(fn, b, a)
            if isinstance(r, type):
                assert s is r
                continue
            assert (s.distance.hex(), s.epsilon.hex()) == (r.distance.hex(), r.epsilon.hex())
            assert {l: d.hex() for l, d in s.deltas.items()} == {l: d.hex() for l, d in r.deltas.items()}
            assert (s.trimmed, s.assigned_labels) == (r.trimmed, r.assigned_labels)
            assert s.matching.pairs == tuple(sorted((lb, la) for la, lb in r.matching.pairs))
            assert (s.matching.unmatched_a, s.matching.unmatched_b) == (
                r.matching.unmatched_b,
                r.matching.unmatched_a,
            )
            assert s.relabeling == {la: lb for lb, la in r.relabeling.items()}
            assert _renamed(s.induced_b, r.relabeling) == _renamed(r.induced_a, {})
            assert _renamed(s.induced_a, r.relabeling) == _renamed(r.induced_b, {})


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


@pytest.mark.parametrize(
    "removed, pairs",
    [
        ((1, 2, 3, 4), ()),  # no pivot leaf survives to measure delta against
        ((1, 3, 4), ()),  # a known label removed, the other side left unmatched
        ((3, 4), ()),  # the other tree's unknown 5 left unmatched
        ((), ((3, 5), (4, 5))),  # 5 matched twice
        ((3, 3), ((4, 5),)),  # 3 removed twice
        ((4,), ((4, 5),)),  # 4 both removed and matched, 3 in neither
        ((3,), ((5, 4),)),  # sides swapped
        ((3,), ((4, 5, 6),)),  # not a pair
        (5, ()),  # removed is no sequence of labels
        ((3,), (5,)),  # a pair that is no pair of labels
        (([3],), ((4, 5),)),  # an unhashable removed label
        ((3,), [([4], 5)]),  # an unhashable matched label
    ],
)
def test_evaluate_configuration_refuses_what_it_cannot_evaluate(example1, removed, pairs):
    a, b = example1  # pivot a: unknowns 3 and 4; b: unknown 5
    with pytest.raises(errors.ValidationError):
        evaluate_configuration(a, b, removed=removed, pairs=pairs)


def test_evaluate_configuration_takes_every_valid_configuration(example1):
    a, b = example1
    assert evaluate_configuration(a, b, removed=(3,), pairs=((4, 5),)) == 0.5
    assert evaluate_configuration(b, a, removed=(3,), pairs=((5, 4),)) == 0.5
    assert evaluate_configuration(a, b, removed=(4,), pairs=((3, 5),)) == 1.0


def test_evaluate_configuration_refuses_a_leafless_disjoint_pair():
    lone = LabeledMergeTree(MergeTree([0.0], [None]), LabelTable({}))
    a, _ = _disjoint_pair()
    with pytest.raises(errors.DisagreementEmptyTree):
        evaluate_configuration(lone, a, removed=a.leaf_labels(), pairs=())


@pytest.mark.parametrize("index", range(len(_full_pairs())))
def test_evaluate_configuration_on_a_full_pair_is_its_full_distance(index):
    a, b = _full_pairs()[index]
    want = full_agreement_distance(a, b).distance
    assert evaluate_configuration(a, b, removed=(), pairs=()) == want
    with pytest.raises(errors.ValidationError):
        evaluate_configuration(a, b, removed=(min(dict(a.labels.items())),), pairs=())


def _oracle_eligible_pairs(count, *, max_vertices=9, start_seed=0, budget=6):
    seed = start_seed
    found = 0
    while found < count:
        fraction = 0.0 if seed % 4 == 3 else 0.5
        a, b = random_pair(seed, max_vertices=max_vertices, label_fraction=fraction)
        info = classify_agreement(a, b)
        if len(info.unknown_a) + len(info.unknown_b) <= budget:
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
    assert len(info.unknown_a) + len(info.unknown_b) > 8
    with pytest.raises(errors.TooLarge):
        oracle_min_objective(a, b)


def test_oracle_identical_trees(example2):
    a, _ = example2
    assert oracle_min_objective(a, a) == 0.0


def _configuration(estimator, a, b, k: int = 0):
    """(distance, deltas and induced matrices over 2^k, matching, trimmed
    set, grants), or the type of the MtdistError the estimator raises."""
    try:
        r = estimator(a, b)
    except errors.MtdistError as exc:
        return type(exc)
    deltas = {label: math.ldexp(d, -k) for label, d in r.deltas.items()}
    induced = [np.ldexp(m.entries, -k).tolist() for m in (r.induced_a, r.induced_b)]
    return math.ldexp(r.distance, -k), deltas, induced, r.matching, r.trimmed, r.assigned_labels


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [1019, 1020, 1021])
def test_random_pairs_scale_exactly_at_the_top_of_the_float_range(k):
    """Scaled by 2^k, each estimator keeps its configuration and returns
    exactly 2^k times its distance, deltas and induced matrices, and the
    oracle 2^k times its minimum on pairs with at most 6 unknowns.  At
    these scales S row sums and squared profiles are past float64 unless
    the pair computes at a scale of its own."""
    shapes = [(11, 0.5), (30, 0.5), (11, 0.0)]
    for seed, (size, fraction) in itertools.product(range(100), shapes):
        a, b = random_pair(seed, max_vertices=size, label_fraction=fraction)
        big = [rescaled(lt, mul=2.0**k) for lt in (a, b)]
        for estimator in (elm_distance, mmb_distance, greedy_distance):
            assert _configuration(estimator, *big, k) == _configuration(estimator, a, b), seed
        info = classify_agreement(a, b)
        if len(info.unknown_a) + len(info.unknown_b) <= 6:
            assert oracle_min_objective(*big) == math.ldexp(oracle_min_objective(a, b), k)


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
    a_labels, b_labels = dict(a.labels.items()), dict(b.labels.items())
    for label, anchor in r.assigned_labels.items():
        if label in a_labels:
            b_labels[label] = b_labels[anchor]
        else:
            a_labels[label] = a_labels[anchor]
    a = LabeledMergeTree(a.tree, LabelTable(a_labels))
    b = LabeledMergeTree(b.tree, LabelTable(b_labels))
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
    records = [_run(step, pair) for step in harness.PAIR_STEPS.values()]
    for r in records + [_run(oracle_distance, a, b)]:
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


def _side_names(r, lt: LabeledMergeTree, side: int) -> list[int]:
    """Each of r's unified labels as named in lt, the tree on ``side`` (0 for
    a, 1 for b): a matched label under its partner's name on b, and a
    granted label, off the pivot, under its anchor's."""
    to_b = {la: lb for lb, la in r.relabeling.items()}
    names = []
    for label in r.unified[0]:
        if label in r.assigned_labels and label not in lt.leaf_index()[1]:
            names.append(r.assigned_labels[label])
        else:
            names.append(to_b.get(label, label) if side else label)
    return names


def test_unified_rows_are_the_labels_leaf_table_rows():
    """Each result keeps the given trees and, per side, its labels'
    leaf-table rows: ``leaf_rows(vertices_of(...))`` of the labels as that
    tree names them.  Covers all three agreement cases, pivots on either
    side, matched and granted labels, and pairs computed at a shift."""
    big = tuple(rescaled(lt, mul=2.0**600) for lt in random_pair(0, max_vertices=31))
    seen = {"pivot b": 0, "shift": 0, "matched": 0, "granted": 0}
    cases = set()
    for a, b in [*_shared_eps_pairs(), big, big[::-1]]:
        pair = methods._Pair(a, b)
        cases.add(pair.info.case)
        seen["pivot b"] += not pair.pivot_is_a
        seen["shift"] += pair.shift != 0
        steps = [pair.result, *(functools.partial(s, pair) for s in harness.PAIR_STEPS.values())]
        for r in (_run(step) for step in [*steps, functools.partial(oracle_distance, a, b)]):
            if isinstance(r, type):
                continue
            seen["matched"] += bool(r.relabeling)
            seen["granted"] += bool(r.assigned_labels)
            _, trees, rows = r.unified
            assert trees[0] is a.tree and trees[1] is b.tree
            for side, lt in enumerate((a, b)):
                want = lt.tree.leaf_rows(lt.labels.vertices_of(_side_names(r, lt, side)))
                assert rows[side].dtype == want.dtype and rows[side].tolist() == want.tolist()
    assert cases == set(Agreement)
    assert all(seen.values()), seen


_PARTIAL_PAIRS = [
    pair for pair in _shared_eps_pairs() if classify_agreement(*pair).case is Agreement.PARTIAL
]


@pytest.mark.parametrize("index", range(len(_PARTIAL_PAIRS)))
def test_lone_estimator_gathers_known_block_once_and_extra_rows(index, monkeypatch):
    """Per side, each result's epsilon reads 3n leaf-table cells for its n
    known, matched and granted labels, not the n^2 of the whole block, and
    delta two cells of the pivot's table per removed leaf, its nearest
    survivors on either side.  Steps run on one pair read as lone calls do:
    no epsilon is kept between them."""
    a, b = _PARTIAL_PAIRS[index]
    cells: dict[tuple[str, int], int] = {}
    in_delta = []
    delta_map, pair_reader = methods._delta_map, MergeTree.leaf_scalar_pairs

    def read(tree, p, q):
        kind = ("delta" if in_delta else "eps", id(tree))
        cells[kind] = cells.get(kind, 0) + np.broadcast(p, q).size
        return pair_reader(tree, p, q)

    def flagged_delta_map(*args):
        in_delta.append(True)
        try:
            return delta_map(*args)
        finally:
            in_delta.pop()

    monkeypatch.setattr(methods, "_delta_map", flagged_delta_map)
    monkeypatch.setattr(MergeTree, "leaf_scalar_pairs", read)
    pair = methods._Pair(a, b)
    trees = (pair.a.tree, pair.b.tree)
    assert trees == (a.tree, b.tree) and a.tree is not b.tree
    for m, step in harness.PAIR_STEPS.items():
        for call in (lambda: harness.METHODS[m](a, b), lambda: step(pair)):
            cells.clear()
            r = call()
            n = len(r.unified[0])
            assert n == len(classify_agreement(a, b).known) + len(r.relabeling) + len(r.assigned_labels)
            for t in trees:
                assert cells[("eps", id(t))] == 3 * n
                delta = 2 * len(r.deltas) if t is pair.piv.tree else 0
                assert cells.get(("delta", id(t)), 0) == delta


def _random_labeled_tree(rng, shape: str, n: int, pool: int, scale: int) -> LabeledMergeTree:
    """n vertices of the given shape with integer scalars times 2**scale, so
    that merge heights tie across branches; every leaf gets a label from
    1..pool, and some more go to random vertices, leaves included."""
    if shape == "binary":
        parents = [None] + [(v - 1) // 2 for v in range(1, n)]
    elif shape == "caterpillar":
        parents = [None] + [2 * ((v - 1) // 2) for v in range(1, n)]
    else:
        parents = [None] + [int(rng.integers(v)) for v in range(1, n)]
    scalars = [0]
    for v in range(1, n):
        scalars.append(scalars[parents[v]] - int(rng.integers(1, 3)))
    tree = MergeTree(np.ldexp(scalars, scale), parents)
    leaves = list(tree.leaves)
    pool = max(pool, len(leaves))
    count = min(pool, len(leaves) + int(rng.integers(len(leaves) + 1)))
    labels = rng.choice(np.arange(1, pool + 1), size=count, replace=False)
    extra = rng.integers(n, size=len(labels) - len(leaves)).tolist()
    return LabeledMergeTree(tree, LabelTable(dict(zip(labels.tolist(), leaves + extra))))


def _preorder(tree: MergeTree) -> dict[int, int]:
    """Each vertex's place in a depth-first walk from the root."""
    order, stack = [], [tree.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(tree.all_children[v]))
    return {v: i for i, v in enumerate(order)}


def test_known_eps_takes_the_dense_block_max_bit_for_bit():
    """Each result's epsilon equals ``inf_norm_diff`` of its two induced
    matrices by ``float.hex``: over the known labels alone and over each
    estimator's unified labels, matched and granted ones included, on
    random trees of three shapes with tied integer scalars, several labels
    per leaf, partly shared label sets and magnitudes 2^-60 to 2^1000.
    Each family of label pairs it reads is needed: without the diagonal,
    a's leaf-order successors or b's, some case here comes out below the
    dense max."""
    rng = np.random.default_rng(7)
    sizes, short = set(), {"diagonal": 0, "a": 0, "b": 0}
    kinds = {"matched": 0, "granted": 0}
    for case in range(1500):
        shapes = rng.choice(["random", "binary", "caterpillar"], size=2)
        n, pool = int(rng.integers(2, 16)), int(rng.integers(2, 30))
        scale = [0, -60, 60, 1000][case % 4]
        pair = methods._Pair(*(_random_labeled_tree(rng, s, n, pool, scale) for s in shapes))
        results = [pair.result()]  # the known labels alone
        for step in harness.PAIR_STEPS.values():
            r = _run(step, pair)
            if not isinstance(r, type):
                results.append(r)
        for r in results:
            ma, mb = r.induced_a, r.induced_b
            assert r.epsilon.hex() == inf_norm_diff(ma, mb).hex()
            kinds["matched"] += bool(r.relabeling)
            kinds["granted"] += bool(r.assigned_labels)
            labels, _, rows = r.unified
            sizes.add(min(len(labels), 2))
            if len(labels) < 2:
                continue
            gap = np.abs(ma.entries - mb.entries)
            ranked = np.argsort(np.asarray(labels, dtype=np.int64))  # ma's label order
            families = {"diagonal": [(i, i) for i in range(len(labels))]}
            for side in ("a", "b"):  # leaf-table rows run in DFS order
                at = rows[side == "b"][ranked].tolist()
                order = sorted(range(len(labels)), key=lambda i: at[i])
                families[side] = list(zip(order, order[1:]))
            for name in families:
                rest = [ij for other, ijs in families.items() if other != name for ij in ijs]
                short[name] += max(gap[i, j] for i, j in rest) < gap.max()
    assert sizes == {0, 1, 2}
    assert all(kinds.values()), kinds
    assert all(short.values()), short


def _same_shape(rng, lt: LabeledMergeTree) -> LabeledMergeTree:
    """lt's tree and labels under fresh tied integer scalars: a full pair."""
    parents = lt.tree.parents.tolist()
    scalars = [0]
    for v in range(1, len(parents)):
        scalars.append(scalars[parents[v]] - int(rng.integers(1, 3)))
    return LabeledMergeTree(MergeTree(scalars, [None] + parents[1:]), lt.labels)


def _merge_heights(tree: MergeTree, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The dense merge heights of leaves ``rows`` above leaves ``cols``."""
    block = tree.leaf_scalars(tree.leaf_rows(rows), tree.leaf_rows(cols))
    return block - tree.scalars[rows][:, None]


def test_delta_map_takes_the_dense_block_min_bit_for_bit():
    """``_delta_map`` equals the row min of the dense merge-height block
    against every surviving leaf, by ``float.hex``, on random pairs of all
    three agreement cases: trees of three shapes (unary chains and vertices
    with three or more children among them), tied integer scalars and
    several labels per leaf, with random removed sets of pivot leaf labels.
    Each side is needed: some removed leaf here has a strictly lower LCA
    with its nearest survivor to the left in leaf-table order than with its
    nearest to the right, and some the reverse."""
    rng = np.random.default_rng(11)
    cases, seen = set(), dict.fromkeys(["unary", "wide", "shared leaf", "empty"], 0)
    lower = {"left": 0, "right": 0}
    for case in range(1200):
        shapes = rng.choice(["random", "binary", "caterpillar"], size=2)
        n, pool = int(rng.integers(2, 16)), int(rng.integers(2, 30))
        a = _random_labeled_tree(rng, shapes[0], n, pool, 0)
        b = _same_shape(rng, a) if case % 3 == 0 else _random_labeled_tree(rng, shapes[1], n, pool, 0)
        pair = methods._Pair(a, b)
        cases.add(pair.info.case)
        piv, leaves = pair.piv, pair.piv.leaf_labels()
        if not leaves:
            continue
        kids = [len(c) for c in piv.tree.all_children]
        seen["unary"] += 1 in kids
        seen["wide"] += max(kids) >= 3
        removed = [int(l) for l in rng.permutation(leaves)[: int(rng.integers(1, len(leaves) + 1))]]
        survivors = [l for l in leaves if l not in removed]
        if not survivors:
            seen["empty"] += 1
            with pytest.raises(errors.DisagreementEmptyTree):
                methods._delta_map(piv, removed)
            continue
        at, kept = (piv.labels.vertices_of(ls) for ls in (removed, survivors))
        dense = _merge_heights(piv.tree, at, kept).min(axis=1)
        got = methods._delta_map(piv, removed)
        assert [got[l].hex() for l in removed] == [h.hex() for h in dense.tolist()]
        seen["shared leaf"] += bool(set(at.tolist()) & set(kept.tolist()))
        place = _preorder(piv.tree)
        order = sorted(set(kept.tolist()), key=place.get)
        for r in at.tolist():
            left = [v for v in order if place[v] < place[r]]
            right = [v for v in order if place[v] > place[r]]
            if left and right and r not in order:
                nearest = np.array([left[-1], right[0]])
                hl, hr = _merge_heights(piv.tree, np.array([r]), nearest)[0]
                lower["left"] += hl < hr
                lower["right"] += hr < hl
    assert cases == set(Agreement)
    assert all(seen.values()), seen
    assert all(lower.values()), lower


def test_each_record_times_only_its_own_step(monkeypatch):
    """A clock that ticks by one on every read, and a ``burn(n)`` that reads
    it n times to stand for work: each record's wall_time is the ticks of
    its own step (its work plus its one lap), the first record's also the
    pair's set-up, and a step that raises leaves its ticks to the next."""
    ticks = itertools.count()
    monkeypatch.setattr(methods, "perf_counter", lambda: float(next(ticks)))

    def burn(n):
        for _ in range(n):
            methods.perf_counter()

    classify = methods.classify_agreement
    monkeypatch.setattr(methods, "classify_agreement", lambda a, b: (burn(10), classify(a, b))[1])
    work = {"mmb": 3, "greedy": 5, "elm": 7}

    def walls(a, b):
        pair, out = methods._Pair(a, b), {}
        for m, step in harness.PAIR_STEPS.items():
            burn(work[m])
            try:
                out[m] = step(pair).wall_time
            except errors.DisagreementUnsupported:
                pass
        return out

    want = {"mmb": 10 + 3 + 1, "greedy": 5 + 1, "elm": 7 + 1}
    assert walls(*load_example(1)) == walls(*_full_pair()) == want
    # greedy refuses a disjoint pair, so its ticks go to elm's record
    assert walls(*_disjoint_pair()) == {"mmb": 10 + 3 + 1, "elm": 5 + 7 + 1}
    # the oracle's record laps the same clock once: set-up, search, record
    small_disjoint = random_pair(3, max_vertices=5, label_fraction=0.0)
    for pair in (*map(load_example, (1, 2, 3)), _full_pair(), small_disjoint):
        assert harness.METHODS["oracle"](*pair).wall_time == 10 + 1


def test_oracle_record_is_the_exhaustive_minimum():
    """On criterion 4's pairs and on FULL pairs, the oracle's record has
    ``oracle_min_objective``'s float exactly, and its configuration
    re-evaluates to it."""
    for a, b in [*oracle_pairs(200), *_full_pairs()]:
        r = harness.METHODS["oracle"](a, b)
        assert r.distance == oracle_min_objective(a, b)
        removed = r.matching.unmatched_a + r.matching.unmatched_b
        assert set(r.deltas) == r.trimmed == set(removed)
        assert evaluate_configuration(a, b, removed=removed, pairs=r.matching.pairs) == r.distance
        if classify_agreement(a, b).case is Agreement.FULL:
            assert r.distance == full_agreement_distance(a, b).distance


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
            yield tuple(rng.integers(0, 4, (n, k)).astype(float) for n in (n1, n2))
        else:
            yield tuple(rng.normal(size=(n, k)) * 10.0 for n in (n1, n2))


@pytest.mark.parametrize("cap", [1, 7, methods._BLOCK_CELLS, 1 << 17])
def test_row_gaps_equal_broadcast_and_per_leaf_argmin(cap, monkeypatch):
    monkeypatch.setattr(methods, "_BLOCK_CELLS", cap)
    for d1, d2 in _gap_inputs():
        got = methods._row_gaps(d1, d2)
        assert np.array_equal(got, _gaps_3d(d1, d2))
        assert np.argmin(got, axis=1).tolist() == _closest_per_leaf(d1, d2)


def _tie_inputs():
    """Shapes made of ties.  Candidates repeat a few profiles, and some
    unmatched rows repeat a candidate (gap 0).  Then candidates that are
    permutations of one random row against constant rows: their exact gaps
    tie, but each float form rounds them its own way, so a filter without
    its margin drops the row's first least candidate."""
    rng = np.random.default_rng(11)
    for n1, n2, k in [(1, 1, 1), (3, 40, 7), (12, 90, 30), (4, 200, 3), (20, 64, 120)]:
        profiles = rng.normal(size=(max(1, n2 // 8), k)) * 5.0
        ds = profiles[rng.integers(0, len(profiles), n2)]
        dmat = np.concatenate((rng.normal(size=(n1, k)) * 5.0, ds[rng.integers(0, n2, n1)]))
        yield dmat, ds
    for n1, n2, k in [(2, 30, 5), (6, 120, 16), (10, 256, 41)]:
        base = rng.normal(size=k) * 3.0 + 1.0
        ds = np.stack([rng.permutation(base) for _ in range(n2)])
        dmat = np.repeat(rng.normal(size=(n1, 1)) * 2.0, k, axis=1)
        yield dmat, ds


def _non_finite_inputs():
    """Small integer profiles with NaN, +inf and -inf cells in some rows on
    both sides: a NaN or infinite row makes a NaN least or NaN lower ends,
    and same-sign infinities make NaN gaps, which the argmin takes first.
    Then finite profiles, integer multiples of 2^509 whose sums of squares
    overflow, so a least gap can be finite with a NaN lower end."""
    rng = np.random.default_rng(13)

    def side(n, k):
        d = rng.integers(0, 4, (n, k)).astype(float)
        bad = rng.random((n, k)) < rng.choice([0.02, 0.1, 0.3])
        d[bad] = rng.choice([np.nan, np.inf, -np.inf], size=int(bad.sum()))
        return d

    for _ in range(40):
        n1, n2, k = rng.integers(1, 30, size=3)
        yield side(n1, k), side(n2, k)
    for _ in range(40):
        n1, n2, k = rng.integers(1, (30, 30, 12))
        yield tuple(rng.integers(-3, 4, (n, k)) * 2.0**509 for n in (n1, n2))


@pytest.mark.parametrize("cap", [1, 5, methods._BLOCK_CELLS])
def test_closest_rows_equal_row_gaps_argmin(cap, monkeypatch):
    """Greedy's receivers through the product filter are the first-index
    argmin of the exact row gaps, on random, tie-heavy and non-finite
    shapes."""
    monkeypatch.setattr(methods, "_BLOCK_CELLS", cap)
    ties = 0
    finite = [*_gap_inputs(), *_tie_inputs()]
    for i, (dmat, ds) in enumerate([*finite, *_non_finite_inputs()]):
        with np.errstate(all=None if i < len(finite) else "ignore"):
            gaps = methods._row_gaps(dmat, ds)
            got = methods._closest_rows(dmat, lambda index: ds[index], len(ds))
        assert got.tolist() == np.argmin(gaps, axis=1).tolist()
        if i < len(finite):
            ties += int(np.sum(gaps == gaps.min(axis=1, keepdims=True)) > len(gaps))
    assert ties >= 4


def _reference_grants(a, b) -> dict[int, int]:
    """greedy's grants as taken before the filter: the whole candidates x
    labels profile matrix, and the argmin of its row gaps."""
    p = methods._Pair(a, b)
    pairs_ab, unmatched = p.matching
    labels, rows = p.columns(pairs_ab)
    newly = np.argsort(np.asarray(labels, dtype=np.int64))
    # each leaf-table row's vertex is its diagonal cell
    piv_nk, oth_nk = (
        t.tree._leaf_table()[2].diagonal()[r[newly]].astype(np.int64)
        for t, r in zip((p.piv, p.oth), rows if p.pivot_is_a else rows[::-1])
    )
    leaves = set(p.oth.tree.leaves)
    cand = [v for v in p.oth.labels.by_vertex if v in leaves]
    cand_v = np.asarray(cand, dtype=np.int64)
    ds = p.oth.tree.path_distance_many(cand_v[:, None], oth_nk[None, :])
    um_v = p.piv.labels.vertices_of(unmatched)
    dmat = p.piv.tree.path_distance_many(um_v[:, None], piv_nk[None, :])
    closest = np.argmin(methods._row_gaps(dmat, ds), axis=1)
    return {label: p.oth.labels.labels_of(cand[int(c)])[0] for label, c in zip(unmatched, closest)}


def _sibling_tree(groups) -> LabeledMergeTree:
    """Root at 10, one vertex per group at its scalar, and below it one leaf
    per (label, scalar): equal scalars make equal-scalar siblings."""
    scalars, parents, labels = [10.0], [None], {}
    for height, leaves in groups:
        scalars.append(height)
        parents.append(0)
        top = len(scalars) - 1
        for label, leaf_scalar in leaves:
            labels[label] = len(scalars)
            scalars.append(leaf_scalar)
            parents.append(top)
    return LabeledMergeTree(MergeTree(scalars, parents), LabelTable(labels))


def _sibling_pairs():
    """The smaller tree holds groups of equal-scalar sibling leaves, so
    several candidates tie on an unmatched leaf's gap and the lowest label
    must win."""
    b = _sibling_tree(
        [(6.0, [(1, 1.0), (2, 1.0), (3, 1.0), (200, 1.0)]), (7.0, [(4, 2.0), (5, 2.0), (201, 2.0)])]
    )
    a = _sibling_tree(
        [
            (5.0, [(1, 1.0), (3, 1.0), (100, 1.0), (101, 1.0)]),
            (8.0, [(2, 0.5), (4, 2.0), (102, 2.0), (103, 0.5)]),
            (9.0, [(5, 2.0), (104, 1.0), (105, 2.0)]),
        ]
    )
    return [(a, b), (b, a)]


@pytest.mark.parametrize("cap", [1, 5, methods._BLOCK_CELLS])
def test_greedy_grants_equal_the_whole_profile_argmin(cap, monkeypatch):
    monkeypatch.setattr(methods, "_BLOCK_CELLS", cap)
    pairs = [random_pair(seed, max_vertices=41) for seed in range(12)] + _sibling_pairs()
    granted = 0
    for a, b in pairs:
        if classify_agreement(a, b).case is Agreement.PARTIAL:
            got = greedy_distance(a, b).assigned_labels
            assert got == _reference_grants(a, b)
            granted += len(got)
    assert granted >= 20
    # 101's gaps tie at candidates 1, 3 and 200, and 103's at 4 and 201:
    # the first candidate in label order wins each tie
    for a, b in _sibling_pairs():
        assert greedy_distance(a, b).assigned_labels == {101: 1, 103: 4, 104: 5, 105: 5}


@pytest.mark.parametrize("cap", [1, 5])
def test_blocked_epsilon_keeps_every_result(cap, monkeypatch):
    """Capped blocks (the row gaps behind the matching, greedy's grant
    search) change no result."""
    pairs = _shared_eps_pairs()
    steps = harness.PAIR_STEPS
    want = [{m: _run(step, methods._Pair(a, b)) for m, step in steps.items()} for a, b in pairs]
    monkeypatch.setattr(methods, "_BLOCK_CELLS", cap)
    for (a, b), expected in zip(pairs, want):
        pair = methods._Pair(a, b)
        for m, step in steps.items():
            _assert_same(_run(step, pair), expected[m])


def test_lone_calls_on_a_known_500_pair_allocate_little(tmp_path):
    """On a benchmark-size fully labeled pair (227 shared labels, 20 against
    3 unknowns, 17 grants), every block is a few tens of KiB: a lone elm or
    mmb call peaks under 512 KiB under tracemalloc, and greedy under
    768 KiB.  With 1 MiB blocks and greedy's whole candidates x labels
    profile matrix they took 1,445 and 2,474 KiB."""
    files = harness.cmd_gen(tmp_path, max_vertices=500, count=6, label_fraction=1.0, seed=0)
    a, b = (read_mtree_file(files[i]) for i in (1, 2))
    for lt in (a, b):
        lt.tree._leaf_table()
    for estimator, bound in ((elm_distance, 512), (mmb_distance, 512), (greedy_distance, 768)):
        tracemalloc.start()
        try:
            r = estimator(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**10, estimator.__name__
    assert len(r.assigned_labels) == 17


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
