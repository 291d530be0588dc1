"""Core data model: validation, LCA, path metric, induced matrices."""

from __future__ import annotations

import functools
import itertools
import operator
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtdist import (
    LabelTable,
    LabeledMatrix,
    LabeledMergeTree,
    MergeTree,
    Agreement,
    classify_agreement,
    induced_matrix,
    inf_norm_diff,
    random_base_tree,
)
from mtdist import EnsembleSpec, core, errors, generate_ensemble
from mtdist.io import parse_mtree, write_mtree

from conftest import rescaled


def chain_tree() -> MergeTree:
    # root(3.0) -> mid(1.0) -> leaf(0.0); mid is kept binary via a stub leaf
    return MergeTree([3.0, 1.0, 0.0, 0.5], [None, 0, 1, 1])


# -- validation ----------------------------------------------------------------


def test_minimal_chain_is_valid():
    MergeTree([2.0, 1.0, 0.0], [None, 0, 1])


@pytest.mark.filterwarnings("error")
def test_extent_is_finite_for_any_finite_scalars():
    """s[root] - min(s) would overflow here; halves taken first do not."""
    assert MergeTree([1e308, -1e308], [None, 0]).extent == (1e308, 1e308)
    assert MergeTree([3.0, 1.0, -2.0], [None, 0, 0]).extent == (2.5, 3.0)
    assert MergeTree([-7.0], [None]).extent == (0.0, 7.0)


@pytest.mark.filterwarnings("error")
def test_scaled_copy_shares_the_leaf_table():
    tree = MergeTree([3.0, 1.0, -2.0], [None, 0, 0])
    big = tree.scaled(1000)
    assert big.scalars.tolist() == [3.0 * 2.0**1000, 2.0**1000, -(2.0**1001)]
    assert big.parents.tolist() == tree.parents.tolist()
    assert big.lca(1, 2) == 0
    assert big._leaf_table() is tree._leaf_table()
    assert big.extent == (2.5 * 2.0**1000, 3.0 * 2.0**1000)
    assert tree.extent == (2.5, 3.0)
    assert tree.scaled(2).extent == (10.0, 12.0)  # its own, though the original's was read
    labeled = LabeledMergeTree(tree, LabelTable({5: 1, 6: 2}))
    small = LabeledMergeTree(labeled.tree.scaled(-3), labeled.labels)
    assert small.labels is labeled.labels and small.leaf_labels() == (5, 6)
    assert small.tree.scalars.tolist() == [0.375, 0.125, -0.25]


@pytest.mark.filterwarnings("error")
def test_scaled_copy_that_merges_scalars_names_its_power():
    """Scaled by 2^-600, the subnormal steps below the root all underflow
    to 0.0, so child and parent meet."""
    tree = MergeTree([2e-320, 1e-320, 0.0], [None, 0, 0])
    with pytest.raises(errors.NonDecreasingScalar, match=r"times 2\*\*-600"):
        tree.scaled(-600)


def test_two_roots_rejected():
    with pytest.raises(errors.MultipleRoots):
        MergeTree([1.0, 0.5], [None, None])


def test_child_above_parent_rejected():
    with pytest.raises(errors.NonDecreasingScalar):
        MergeTree([3.0, 5.0, 0.0], [None, 0, 0])


def test_equal_scalars_rejected():
    with pytest.raises(errors.NonDecreasingScalar):
        MergeTree([3.0, 3.0, 0.0], [None, 0, 0])


@pytest.mark.parametrize(
    "scalars, parents, error",
    [
        ([], [], errors.ValidationError),
        ([1.0, 0.0], [None], errors.ValidationError),
        ([1.0, 0.0], [None, 2], errors.InvalidVertex),
        ([1.0, 0.0], [None, -2], errors.InvalidVertex),
        (["a"], [None], errors.ValidationError),
        ([1j], [None], errors.ValidationError),
        ([[1.0], [0.0, 2.0]], [None, 0], errors.ValidationError),
    ],
    ids=[
        "no-vertex",
        "lengths-differ",
        "parent-past-end",
        "parent-below-none",
        "string-scalar",
        "complex-scalar",
        "ragged-scalars",
    ],
)
def test_malformed_trees_refused_at_construction(scalars, parents, error):
    with pytest.raises(error):
        MergeTree(scalars, parents)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_scalar_rejected(bad):
    with pytest.raises(errors.ValidationError, match="vertex 1 has a non-finite scalar"):
        MergeTree([1.0, bad, 0.0], [None, 0, 0])


def test_cycle_rejected():
    with pytest.raises(errors.CycleDetected):
        MergeTree([1.0, 0.5], [1, 0])
    # a leafless cycle off the root has a root, but construction still sees it
    with pytest.raises(errors.CycleDetected, match="vertex 3 is not reachable"):
        MergeTree([1.0, 0.5, 0.4, 0.3, 0.2], [None, 0, 0, 4, 3])


def test_unary_interior_semantically_valid():
    # chains are valid merge trees; the file loader canonicalizes them away
    t = MergeTree([3.0, 2.0, 1.0, 0.5], [None, 0, 1, 0])
    assert t.path_distance(2, 3) == 4.5


def test_unary_root_allowed():
    MergeTree([3.0, 1.0, 0.0, 0.5], [None, 0, 1, 1])


# -- lca / distances -----------------------------------------------------------


def test_lca_self_and_root():
    t = chain_tree()
    assert t.lca(2, 2) == 2
    assert t.lca(2, 0) == 0
    assert t.lca(2, 3) == 1


def test_path_distance_identity_and_chain():
    t = chain_tree()
    assert t.path_distance(2, 2) == 0.0
    assert t.path_distance(2, 0) == 3.0


@pytest.mark.filterwarnings("error")
def test_a_path_distance_past_float64_raises_non_finite_cost():
    """From -1.7e308 up to the root at 1.7e308 is 3.4e308: past float64,
    so refused with the typed error and no overflow warning; the finite
    distances of the same tree still come out."""
    t = MergeTree([1.7e308, -1.7e308, 1e308], [None, 0, 0])
    for far in (
        lambda: t.path_distance(1, 2),
        lambda: t.path_distance_many([1], [2]),
        lambda: t.path_distance_many([[2], [0]], [1, 2]),
    ):
        with pytest.raises(errors.NonFiniteCost):
            far()
    d = 1.7e308 - 1e308
    assert t.path_distance(0, 2) == d
    assert t.path_distance_many([2, 0], [[2], [0]]).tolist() == [[0.0, d], [d, 0.0]]


def _brute_lca(tree: MergeTree, u: int, v: int) -> int:
    def chain(x):
        out = []
        while x is not None:
            out.append(x)
            x = tree.parent(x)
        return out
    cu = chain(u)
    cv = set(chain(v))
    for x in cu:
        if x in cv:
            return x
    raise AssertionError("no common ancestor")


def _random_rooted_tree(n: int, seed: int) -> MergeTree:
    # each vertex hangs below a random smaller id: vertices get any number
    # of children, unary ones included
    rng = np.random.default_rng(seed)
    parents = [None] + [int(rng.integers(0, v)) for v in range(1, n)]
    return MergeTree([float(n - v) for v in range(n)], parents)


# inputs beside the binary random_base_tree(41, seed) trees
LCA_TREES = {
    **{f"nonbinary{seed}": (lambda seed=seed: _random_rooted_tree(30, seed)) for seed in range(3)},
    "star": lambda: MergeTree([1.0, 0.0, 0.2, 0.4, 0.6], [None, 0, 0, 0, 0]),
    "single_vertex": lambda: MergeTree([1.0], [None]),
}


def _lca_tree(which) -> MergeTree:
    return random_base_tree(41, which) if isinstance(which, int) else LCA_TREES[which]()


def _assert_lca_many_matches_bruteforce(tree: MergeTree) -> None:
    leaves = np.asarray(tree.leaves, dtype=np.int64)
    everyone = np.arange(tree.n_vertices)
    queries = [
        (leaves[:, None], leaves[None, :]),  # leaf x leaf, outer form
        (leaves, leaves[::-1]),  # leaf x leaf, elementwise
        (leaves[:, None], everyone[None, :]),  # leaf x internal
        (everyone[:, None], everyone[None, :]),
    ]
    for us, vs in queries:
        got = tree.lca_many(us, vs)
        us_b, vs_b = np.broadcast_arrays(us, vs)
        want = [_brute_lca(tree, int(u), int(v)) for u, v in zip(us_b.flat, vs_b.flat)]
        assert got.dtype == np.int64
        assert got.flags.c_contiguous  # row sums over it must round as before
        assert got.shape == us_b.shape
        assert got.ravel().tolist() == want


@pytest.mark.parametrize("which", [*range(6), *LCA_TREES])
def test_lca_matches_bruteforce(which):
    tree = _lca_tree(which)
    for u, v in itertools.combinations(range(tree.n_vertices), 2):
        assert tree.lca(u, v) == _brute_lca(tree, u, v)
    _assert_lca_many_matches_bruteforce(tree)
    pos, _, _, table = tree._leaf_lca  # one table over the childless vertices
    childless = [v for v in range(tree.n_vertices) if not tree.children(v)]
    assert table.shape == (len(childless), len(childless))
    assert sorted(np.flatnonzero(pos >= 0).tolist()) == childless


def _caterpillar(n_leaves: int) -> MergeTree:
    # spine vertex k hangs below k - 1 and carries one leaf: depth n_leaves - 1
    spine = n_leaves - 1
    scalars = [float(spine - k) for k in range(spine)]
    parents = [None] + list(range(spine - 1))
    scalars += [-0.5] * (spine + 1)
    parents += list(range(spine)) + [spine - 1]
    return MergeTree(scalars, parents)


def test_lca_many_on_deep_tree_with_many_leaves():
    # over 2^22 leaf pairs, 2,099 levels deep
    tree = _caterpillar(2100)
    rng = np.random.default_rng(7)
    leaves = np.asarray(tree.leaves)
    internal = np.flatnonzero([bool(tree.children(v)) for v in range(tree.n_vertices)])
    for us, vs in [(leaves, leaves), (leaves, internal), (internal, internal)]:
        us = rng.choice(us, size=(8, 1))
        vs = rng.choice(vs, size=(1, 8))
        got = tree.lca_many(us, vs)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        want = [[_brute_lca(tree, int(u), int(v)) for v in vs[0]] for u in us[:, 0]]
        assert got.tolist() == want


def test_validate_load_and_generate_build_no_leaf_table(monkeypatch):
    # the table is L^2 cells: only LCA queries may pay for it
    def refuse(tree):
        raise AssertionError("leaf table built")

    monkeypatch.setattr(core, "_build_leaf_table", refuse)
    _caterpillar(20_000)  # its table would take 800 MB
    members = generate_ensemble(EnsembleSpec(max_vertices=61, ensemble_size=3))
    for lt in members:
        parse_mtree(write_mtree(lt))
        assert lt.tree._leaf_lca is None


def test_leaf_table_dtype_and_pickle_round_trip():
    tree = random_base_tree(41, 0)
    payload = pickle.dumps(tree)
    leaves = np.asarray(tree.leaves)
    before = tree.lca_many(leaves[:, None], leaves[None, :])
    pos, _, _, table = tree._leaf_lca
    assert table.dtype == np.uint8 and table.shape == (len(leaves), len(leaves))
    assert pos[leaves].min() >= 0 and np.all(np.delete(pos, leaves) == -1)
    assert pickle.dumps(tree) == payload  # the table never travels
    copy = pickle.loads(payload)
    assert copy._leaf_lca is None
    assert np.array_equal(copy.lca_many(leaves[:, None], leaves[None, :]), before)
    big = MergeTree([2.0] + [1.0] * 299, [None] + [0] * 299)
    big.lca_many([1], [2])
    assert big._leaf_lca[3].dtype == np.uint16


def test_leaf_labels_found_once_and_never_pickled():
    tree = MergeTree([3.0, 1.0, 0.0, 0.0, 0.0], [None, 0, 1, 1, 0])
    lt = LabeledMergeTree(tree, LabelTable({9: 4, 2: 2, 5: 1, 7: 3}))
    payload = pickle.dumps(lt)
    assert lt.leaf_labels() == (2, 7, 9)
    labels, label_set, verts = lt.leaf_index()
    assert (labels, label_set) == ((2, 7, 9), frozenset({2, 7, 9}))
    assert verts.dtype == np.int64 and verts.tolist() == [2, 3, 4]
    assert not verts.flags.writeable
    assert lt.leaf_index() is lt.leaf_index()
    assert pickle.dumps(lt) == payload  # the cached index never travels
    copy = pickle.loads(payload)
    assert copy._leaf_index is None
    assert copy.leaf_labels() == (2, 7, 9)
    assert copy.leaf_index()[2].tolist() == [2, 3, 4]
    # a leaf carrying two labels appears once per label
    lt = LabeledMergeTree(tree, LabelTable({9: 4, 2: 2, 5: 1, 7: 3, 8: 2}))
    assert lt.leaf_index()[0] == (2, 7, 8, 9)
    assert lt.leaf_index()[2].tolist() == [2, 3, 2, 4]


def _bfs_edge_sum(tree: MergeTree, u: int, v: int) -> float:
    # undirected BFS over edges weighted by scalar differences
    adj: dict[int, list[int]] = {x: [] for x in range(tree.n_vertices)}
    for x in range(tree.n_vertices):
        p = tree.parent(x)
        if p is not None:
            adj[x].append(p)
            adj[p].append(x)
    dist = {u: 0.0}
    queue = [u]
    while queue:
        x = queue.pop(0)
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + abs(float(tree.scalars[x] - tree.scalars[y]))
                queue.append(y)
    return dist[v]


@pytest.mark.parametrize("seed", [3, 17])
def test_path_distance_matches_bfs_edge_sum(seed):
    tree = random_base_tree(21, seed)
    for u, v in itertools.combinations(range(tree.n_vertices), 2):
        assert tree.path_distance(u, v) == pytest.approx(
            _bfs_edge_sum(tree, u, v), abs=1e-12
        )


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_path_distance_metric_axioms(seed):
    tree = random_base_tree(15, seed)
    leaves = tree.leaves
    for u, v in itertools.combinations(leaves, 2):
        duv = tree.path_distance(u, v)
        assert duv > 0
        assert duv == tree.path_distance(v, u)
    for u, v, w in itertools.permutations(leaves[:4], 3):
        assert tree.path_distance(u, v) <= (
            tree.path_distance(u, w) + tree.path_distance(w, v) + 1e-9
        )
    for u in leaves:
        assert tree.path_distance(u, u) == 0.0


def test_invalid_vertex_raises():
    t = chain_tree()
    with pytest.raises(errors.InvalidVertex):
        t.lca(0, 99)
    with pytest.raises(errors.InvalidVertex):
        t.lca_many([-4], [3])  # would wrap around to the root
    with pytest.raises(errors.InvalidVertex):
        t.lca_many([-2], [3])  # would wrap around to leaf 2
    with pytest.raises(errors.InvalidVertex):
        t.lca_many([9], [3])


@pytest.mark.parametrize("which", [*range(3), *LCA_TREES])
def test_leaf_lcas_equal_lca_many_on_leaf_blocks(which):
    tree = _lca_tree(which)
    leaves = np.asarray([v for v in range(tree.n_vertices) if not tree.children(v)])
    rows = tree.leaf_rows(leaves)
    got = tree.leaf_lcas(rows[::-1], rows[1:])
    assert np.array_equal(got, tree.lca_many(leaves[::-1, None], leaves[None, 1:]))
    assert tree.leaf_rows(leaves[:0]).size == 0


def test_leaf_rows_checks_each_vertex_once():
    t = chain_tree()
    inner = next(v for v in range(t.n_vertices) if t.children(v))
    with pytest.raises(errors.InvalidVertex, match="childless"):
        t.leaf_rows([t.leaves[0], inner])
    for bad in ([-1], [t.n_vertices], [0.5]):
        with pytest.raises(errors.InvalidVertex):
            t.leaf_rows(bad)


def test_vertex_ids_must_be_integers():
    t = MergeTree([1.0, 0.0, 0.2], [None, 0, 0])
    assert t.lca(np.int64(1), 2) == 0
    for call in (
        lambda: t.lca(0.5, 1),
        lambda: t.lca_many([1.0], [2]),
        lambda: t.is_leaf(1.0),
        lambda: MergeTree([0.0, -1.0], [None, 0.5]),
        lambda: MergeTree([0.0, -1.0], [None, "0"]),
    ):
        with pytest.raises(errors.InvalidVertex):
            call()


@st.composite
def _small_trees(draw) -> tuple[MergeTree, list[int | None]]:
    """A tree of 1-7 vertices with integer scalar steps, ids in random order."""
    n = draw(st.integers(1, 7))
    up = [None] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
    order = draw(st.permutations(range(n)))  # vertex v gets id order[v]
    parents: list[int | None] = [None] * n
    scalars = [10.0] * n
    for v in range(1, n):
        parents[order[v]] = order[up[v]]
        scalars[order[v]] = scalars[order[up[v]]] - draw(st.integers(1, 3))
    return MergeTree(scalars, parents), parents


_ID = st.one_of(
    st.integers(-2, 8), st.integers(0, 6), st.booleans(), st.floats(-1, 8),
    st.sampled_from([2**63, 2**70]),
)
_IDS = st.one_of(_ID, st.lists(_ID, max_size=3), st.lists(st.lists(_ID, max_size=2), max_size=3))


def _walk_lca(parents: list[int | None], u: int, v: int) -> int:
    above = set()
    while u is not None:
        above.add(u)
        u = parents[u]
    while v not in above:
        v = parents[v]
    return v


def _vertex(n: int, x) -> int | None:
    """x as a vertex id of an n-vertex tree, or None where it is none."""
    try:
        v = operator.index(x)
    except TypeError:
        return None
    return v if 0 <= v < n else None


def _id_arrays(n: int, *xs) -> list[np.ndarray] | None:
    """xs broadcast to arrays of vertex ids, or None where they are not that;
    an empty broadcast holds no id to check."""
    try:
        arrays = np.broadcast_arrays(*map(np.asarray, xs))
    except ValueError:
        return None
    if arrays[0].size and not all(
        a.dtype.kind in "iu" and ((0 <= a) & (a < n)).all() for a in arrays
    ):
        return None
    return arrays


def _answer(call, *args):
    """The call's result, or None where it raises an MtdistError; any other
    exception fails the test."""
    try:
        return call(*args)
    except errors.MtdistError:
        return None


@given(_small_trees(), _IDS, _IDS)
@settings(max_examples=300, deadline=None)
def test_vertex_queries_match_a_parent_walk_or_raise_mtdist_errors(tree_parents, us, vs):
    tree, parents = tree_parents
    n, s = tree.n_vertices, tree.scalars.tolist()
    walk = functools.partial(_walk_lca, parents)

    def dist(u, v):
        w = s[walk(u, v)]
        return (w - s[u]) + (w - s[v])

    u, v = _vertex(n, us), _vertex(n, vs)
    pair = None if u is None or v is None else (u, v)
    assert _answer(tree.lca, us, vs) == (pair and walk(*pair))
    assert _answer(tree.path_distance, us, vs) == (pair and dist(*pair))
    assert _answer(tree.is_leaf, us) == (None if u is None else u != tree.root and u not in parents)

    arrays = _id_arrays(n, us, vs)
    for call, one in ((tree.lca_many, walk), (tree.path_distance_many, dist)):
        got = _answer(call, us, vs)
        assert (got is None) == (arrays is None), call.__name__
        if got is not None:
            want = [one(int(a), int(b)) for a, b in zip(arrays[0].ravel(), arrays[1].ravel())]
            assert got.shape == arrays[0].shape and got.ravel().tolist() == want

    ids = _id_arrays(n, us)
    if ids is not None and any(int(x) in parents for x in ids[0].ravel()):
        ids = None  # a vertex with children has no leaf-table row
    rows = _answer(tree.leaf_rows, us)
    assert (rows is None) == (ids is None)
    if rows is not None:  # the table's diagonal holds each row's own vertex
        assert rows.shape == ids[0].shape
        assert tree.leaf_lca_pairs(rows, rows).tolist() == ids[0].tolist()


# -- induced matrices ----------------------------------------------------------


def test_induced_matrix_fixture_values(example1, example3):
    _, b1 = example1
    m = induced_matrix(b1, [1, 2, 5])
    assert m.entries.tolist() == [[0, 2, 3], [2, 0, 3], [3, 3, 0]]
    a3, b3 = example3
    m1 = induced_matrix(a3, [1, 2, 4])
    assert m1.entries.tolist() == [[0, 1, 3], [1, 0, 3], [3, 3, 1]]
    m2 = induced_matrix(b3, [1, 5, 4])
    assert m2.entries.tolist() == [[0, 3, 3], [3, 2, 3], [3, 3, 1]]


def test_induced_matrix_single_label():
    lt = LabeledMergeTree(
        MergeTree([2.0, 1.5, 0.0], [None, 0, 0]), LabelTable({7: 1, 8: 2})
    )
    m = induced_matrix(lt, [7])
    assert m.entries.tolist() == [[1.5]]


def test_induced_matrix_unknown_label(example1):
    a, _ = example1
    with pytest.raises(errors.UnknownLabel):
        induced_matrix(a, [1, 99])
    with pytest.raises(errors.DuplicateLabel):
        induced_matrix(a, [1, 1])


def test_induced_matrix_takes_labels_by_operator_index():
    """A float or a string is no label, as LabelTable defines labels: it is
    refused, not truncated to the integer it resembles."""
    lt = LabeledMergeTree(
        MergeTree([0.0, -1.0, -2.0, -3.0], [None, 0, 0, 0]), LabelTable({1: 1, 2: 2, 3: 3})
    )
    for labels in ([1.5, 2], ["1"], [2.0]):
        with pytest.raises(errors.UnknownLabel):
            induced_matrix(lt, labels)
    m = induced_matrix(lt, np.array([3, 1], dtype=np.int64))
    assert m.row_labels == m.col_labels == (3, 1)
    assert all(type(l) is int for l in m.row_labels)
    assert m.entries.tolist() == [[-3.0, 0.0], [0.0, -1.0]]


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_induced_matrix_symmetric_and_dominant(seed):
    tree = random_base_tree(13, seed)
    labels = {i + 1: leaf for i, leaf in enumerate(tree.leaves)}
    lt = LabeledMergeTree(tree, LabelTable(labels))
    m = induced_matrix(lt, sorted(labels))
    assert np.array_equal(m.entries, m.entries.T)
    diag = np.diag(m.entries)
    assert np.all(m.entries >= np.maximum(diag[:, None], diag[None, :]) - 1e-12)


def test_shift_moves_induced_entries_by_constant(example1):
    a, b = example1
    la = sorted(a.leaf_labels())
    before = induced_matrix(a, la).entries
    shifted = rescaled(a, add=2.5)
    after = induced_matrix(shifted, la).entries
    assert np.allclose(after - before, 2.5, atol=1e-12)
    d0 = inf_norm_diff(induced_matrix(a, [1, 2]), induced_matrix(b, [1, 2]))
    d1 = inf_norm_diff(
        induced_matrix(shifted, [1, 2]), induced_matrix(rescaled(b, add=2.5), [1, 2])
    )
    assert d1 == pytest.approx(d0, abs=1e-9)


# -- inf norm ------------------------------------------------------------------


def test_inf_norm_identity_and_values(example3):
    a3, b3 = example3
    m1 = induced_matrix(a3, [1, 2, 4])
    assert inf_norm_diff(m1, m1) == 0.0
    m2 = induced_matrix(b3, [1, 5, 4])
    m2 = LabeledMatrix((1, 2, 4), (1, 2, 4), m2.entries)  # matched leaf renamed
    assert inf_norm_diff(m1, m2) == 2.0


def test_inf_norm_single_offdiagonal():
    a = LabeledMatrix((1, 2), (1, 2), np.array([[0.0, 1.0], [1.0, 0.0]]))
    b = LabeledMatrix((1, 2), (1, 2), np.array([[0.0, 4.0], [4.0, 0.0]]))
    assert inf_norm_diff(a, b) == 3.0


def test_inf_norm_aligns_by_label_not_position():
    a = LabeledMatrix((1, 2), (1, 2), np.array([[0.0, 5.0], [5.0, 1.0]]))
    b = LabeledMatrix((2, 1), (2, 1), np.array([[1.0, 5.0], [5.0, 0.0]]))
    assert inf_norm_diff(a, b) == 0.0


def test_labeled_matrix_refuses_duplicate_labels_and_wrong_shape():
    with pytest.raises(errors.DuplicateLabel, match="row"):
        LabeledMatrix((1, 1), (1, 2), np.zeros((2, 2)))
    with pytest.raises(errors.DuplicateLabel, match="column"):
        LabeledMatrix((1, 2), (2, 2), np.zeros((2, 2)))
    with pytest.raises(errors.LabelMismatch, match="shape"):
        LabeledMatrix((1, 2), (1, 2), np.zeros((2, 3)))


def test_labeled_matrix_refuses_unhashable_labels():
    with pytest.raises(errors.ValidationError, match="row label is unhashable"):
        LabeledMatrix(([1],), (1,), [[1.0]])
    with pytest.raises(errors.ValidationError, match="column label is unhashable"):
        LabeledMatrix((1,), ([1],), [[1.0]])


def test_labeled_matrix_refuses_ragged_and_non_numeric_entries():
    with pytest.raises(errors.LabelMismatch):
        LabeledMatrix((1, 2), (1,), [[1.0], [2.0, 3.0]])
    with pytest.raises(errors.LabelMismatch):
        LabeledMatrix((1, 2), (1, 2), [np.zeros(2), np.zeros((2, 2))])
    with pytest.raises(errors.ValidationError):
        LabeledMatrix((1,), (1,), [["x"]])
    with pytest.raises(errors.ValidationError):
        LabeledMatrix((1,), (1, 2), [[1.0, [2.0]]])


def test_inf_norm_label_mismatch():
    a = LabeledMatrix((1,), (1,), np.zeros((1, 1)))
    b = LabeledMatrix((2,), (2,), np.zeros((1, 1)))
    with pytest.raises(errors.LabelMismatch):
        inf_norm_diff(a, b)
    # the label sets are checked even when there is no entry to compare
    empty_a = LabeledMatrix((), (1,), np.zeros((0, 1)))
    empty_b = LabeledMatrix((), (2,), np.zeros((0, 1)))
    with pytest.raises(errors.LabelMismatch):
        inf_norm_diff(empty_a, empty_b)
    assert inf_norm_diff(empty_a, empty_a) == 0.0


# -- agreement classification --------------------------------------------------


def _toy(labels: dict[int, int]) -> LabeledMergeTree:
    tree = MergeTree([1.0, 0.0, 0.5], [None, 0, 0])
    return LabeledMergeTree(tree, LabelTable(labels))


def test_classify_full_partial_disagreement(example1):
    x = _toy({1: 1, 2: 2})
    y = _toy({1: 1, 2: 2})
    assert classify_agreement(x, y).case is Agreement.FULL
    a, b = example1
    info = classify_agreement(a, b)
    assert info.case is Agreement.PARTIAL
    assert info.known == (1, 2)
    assert info.unknown_a == (3, 4)
    assert info.unknown_b == (5,)
    z = _toy({4: 1, 5: 2})
    assert classify_agreement(x, z).case is Agreement.DISAGREEMENT


def test_label_table_invariants():
    with pytest.raises(errors.ValidationError):
        LabelTable({0: 1})
    with pytest.raises(errors.ValidationError):
        LabelTable({-3: 1})
    table = LabelTable({1: 0, 2: 0, 3: 1})
    assert table.labels_of(0) == (1, 2)

    class Two:  # a distinct dict key that is the integer 2 by operator.index
        def __index__(self):
            return 2

    with pytest.raises(errors.DuplicateLabel):
        LabelTable({1: 0, 2: 0, Two(): 1})


def test_label_table_refuses_labels_that_are_not_int64_integers():
    for bad in ({1.5: 0}, {"2": 0}, {1: 0.5}, {1 << 63: 0}, {99999999999999999999: 0}):
        with pytest.raises(errors.ValidationError):
            LabelTable(bad)
    table = LabelTable({(1 << 63) - 1: np.int32(0), np.int64(3): 1})
    assert list(table.items()) == [(3, 1), ((1 << 63) - 1, 0)]
    assert all(type(x) is int for pair in table.items() for x in pair)


def test_label_table_keeps_labels_in_ascending_order():
    rng = np.random.default_rng(5)
    labels = [int(l) for l in rng.choice(10_000, size=60, replace=False) + 1]
    tree = random_base_tree(41, 2)
    leaves, others = list(tree.leaves), [v for v in range(tree.n_vertices) if v not in tree.leaves]
    # every leaf gets one label, the rest land anywhere (internal vertices too)
    mapping = dict(zip(labels, leaves + [int(v) for v in rng.choice(others, 60 - len(leaves))]))
    tables = []
    for _ in range(5):
        items = list(mapping.items())
        rng.shuffle(items)
        table = LabelTable(dict(items))
        assert [l for l, _ in table.items()] == sorted(mapping)
        firsts = [table.labels_of(v)[0] for v in table.by_vertex]
        assert firsts == sorted(firsts)
        for v, ls in table.by_vertex.items():
            assert table.labels_of(v) == ls == tuple(sorted(l for l in mapping if mapping[l] == v))
        lt = LabeledMergeTree(tree, table)
        assert lt.leaf_labels() == tuple(sorted(l for l in mapping if mapping[l] in leaves))
        tables.append((list(table.items()), list(table.by_vertex.items())))
    assert all(t == tables[0] for t in tables)


def _classify_by_sets(a: LabeledMergeTree, b: LabeledMergeTree) -> core.AgreementInfo:
    """The set-algebra split, kept as the reference for classify_agreement."""
    la = {l for l, v in a.labels.items() if v in set(a.tree.leaves)}
    lb = {l for l, v in b.labels.items() if v in set(b.tree.leaves)}
    known = la & lb
    if la == lb:
        case = Agreement.FULL
    elif known:
        case = Agreement.PARTIAL
    else:
        case = Agreement.DISAGREEMENT
    return core.AgreementInfo(
        case, tuple(sorted(known)), tuple(sorted(la - known)), tuple(sorted(lb - known))
    )


def _random_labeled(rng: np.random.Generator, pool: list[int]) -> LabeledMergeTree:
    """A random tree of 1-8 vertices whose labels come from ``pool``: one on
    each leaf, the rest shuffled onto any vertex.  Some trees are leafless,
    some labels sit inside."""
    labels = [l for l in pool if rng.random() < 0.6]
    rng.shuffle(labels)
    # n vertices have at most n - 1 leaves: enough labels for every leaf
    n = int(rng.integers(1, min(8, len(labels) + 1) + 1))
    tree = _random_rooted_tree(n, int(rng.integers(1 << 30)))
    leaves = list(tree.leaves)
    mapping = dict(zip(labels, leaves))
    mapping.update({l: int(rng.integers(n)) for l in labels[len(leaves) :]})
    return LabeledMergeTree(tree, LabelTable(mapping))


def test_classify_agreement_matches_set_algebra():
    rng = np.random.default_rng(11)
    cases = set()
    for i in range(3000):
        shared = [int(l) for l in rng.choice(50, size=int(rng.integers(0, 6)), replace=False) + 1]
        a = _random_labeled(rng, shared + [101, 102, 103])
        mode = i % 4
        if mode == 0:  # identical
            b = a
        elif mode == 1:  # identical, from the mapping in reverse order
            b = LabeledMergeTree(a.tree, LabelTable(dict(reversed(list(a.labels.items())))))
        elif mode == 2:  # overlapping
            b = _random_labeled(rng, shared + [201, 202])
        else:  # disjoint
            b = _random_labeled(rng, [301, 302, 303])
        for x, y in ((a, b), (b, a)):
            got = classify_agreement(x, y)
            assert got == _classify_by_sets(x, y)
            cases.add(got.case)
    assert cases == set(Agreement)


def test_label_on_missing_vertex_refused():
    tree = MergeTree([1.0, 0.0, 0.5], [None, 0, 0])
    with pytest.raises(errors.InvalidVertex, match="label 3 points at missing vertex 7"):
        LabeledMergeTree(tree, LabelTable({1: 1, 2: 2, 3: 7}))


def test_leaf_must_carry_label():
    tree = MergeTree([1.0, 0.0, 0.5], [None, 0, 0])
    with pytest.raises(errors.MissingLeafLabel):
        LabeledMergeTree(tree, LabelTable({1: 1}))
