"""Hungarian kernel: optimality against brute force, determinism, edge cases."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtdist import errors, solve
from mtdist.assignment import _augmenting_hungarian, _lexicographic_matching


def brute_min_cost(c: np.ndarray) -> float:
    n = c.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        total = float(sum(c[i, perm[i]] for i in range(n)))
        if total < best:
            best = total
    return best


def test_singleton():
    a = solve([[0.0]])
    assert a.pairs == ((0, 0),)
    assert a.total_cost == 0.0
    assert a.unmatched_rows == () and a.unmatched_cols == ()


def test_diagonal_dominant():
    a = solve([[1.0, 2.0], [2.0, 1.0]])
    assert a.pairs == ((0, 0), (1, 1))
    assert a.total_cost == 2.0


def test_matches_bruteforce_on_random_squares():
    rng = np.random.default_rng(42)
    for _ in range(120):
        n = int(rng.integers(2, 7))
        c = rng.uniform(0, 10, size=(n, n))
        a = solve(c)
        assert a.total_cost == brute_min_cost(c)
        rows = [i for i, _ in a.pairs]
        cols = [j for _, j in a.pairs]
        assert sorted(rows) == list(range(n)) and sorted(cols) == list(range(n))


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_no_permutation_beats_solution(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    c = rng.uniform(0, 5, size=(n, n))
    a = solve(c)
    perm = rng.permutation(n)
    assert a.total_cost <= float(sum(c[i, perm[i]] for i in range(n))) + 1e-12


def test_transpose_swaps_pairs():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        c = rng.uniform(0, 9, size=(n, m))
        a = solve(c)
        b = solve(c.T)
        assert sorted((j, i) for i, j in a.pairs) == sorted(b.pairs)


def test_row_and_column_shifts_keep_argmin():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        c = rng.uniform(0, 9, size=(n, n))
        base = solve(c)
        shifted = c.copy()
        shifted[int(rng.integers(0, n))] += 3.5
        shifted[:, int(rng.integers(0, n))] += 1.25
        assert solve(shifted).pairs == base.pairs


def test_rectangular_unmatched_sides():
    a = solve([[5.0, 1.0, 7.0], [2.0, 6.0, 3.0]])
    assert len(a.pairs) == 2
    assert a.unmatched_rows == ()
    assert len(a.unmatched_cols) == 1
    b = solve(np.zeros((4, 2)))
    assert len(b.pairs) == 2
    assert len(b.unmatched_rows) == 2


def test_lexicographic_tie_breaking():
    assert solve(np.zeros((3, 3))).pairs == ((0, 0), (1, 1), (2, 2))
    assert solve([[1.0, 1.0], [1.0, 1.0]]).pairs == ((0, 0), (1, 1))
    # two optima: {(0,0),(1,1)} and {(0,1),(1,0)} both cost 4
    c = np.array([[1.0, 2.0], [2.0, 3.0]])
    assert solve(c).pairs == ((0, 0), (1, 1))


def test_lexicographic_canonical_on_tied_instances():
    # small integer entries force many optimal matchings; the returned pair
    # list must be the lexicographically smallest among them
    rng = np.random.default_rng(123)
    for _ in range(400):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        c = rng.integers(0, 3, size=(n, m)).astype(float)
        got = solve(c)
        k = min(n, m)
        best_cost, best_pairs = None, None
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.permutations(range(m), k):
                pairs = tuple(sorted(zip(rows, cols)))
                cost = float(sum(c[i, j] for i, j in pairs))
                if (
                    best_cost is None
                    or cost < best_cost - 1e-12
                    or (abs(cost - best_cost) <= 1e-12 and pairs < best_pairs)
                ):
                    best_cost, best_pairs = cost, pairs
        assert got.total_cost == best_cost
        assert got.pairs == best_pairs


def padded_like_solve(c: np.ndarray) -> np.ndarray:
    n, m = c.shape
    size = max(n, m)
    sentinel = size * max(float(c.max()), 0.0) + 1.0
    padded = np.full((size, size), sentinel)
    padded[:n, :m] = c
    return padded


def tall_wide_square(sizes):
    """A tall, a wide and a square shape of each size."""
    rng = np.random.default_rng(7)
    shapes = []
    for size in sizes:
        short = int(rng.integers(1, size + 1))
        shapes += [(size, short), (short, size), (size, size)]
    return shapes


# tall solves of the benchmark's size: 40-50 rows against short sides 1..size
TALL = [(size, short) for size in range(40, 51) for short in range(1 + size % 6, size + 1, 6)]


def random_instances(rng, shapes):
    """Matrices of each shape with uniform floats, small-integer ties, one
    repeated cost and -0.0 entries, padded to square as solve pads them;
    yields (padded, real column count)."""
    for n, m in shapes:
        ties = rng.integers(0, 4, size=(n, m)).astype(float)
        for c in (
            rng.uniform(0, 10, size=(n, m)),
            ties,
            np.full((n, m), 2.0),
            np.where(ties == 0, -0.0, ties),
        ):
            yield padded_like_solve(c), m


def reference_numpy_hungarian(cost: np.ndarray):
    """The vectorised form of the kernel loop: one numpy pass over all n
    columns per step.  The list loop must match it bit for bit."""
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n + 1)  # index n is the virtual column
    p = np.full(n + 1, -1, dtype=np.int64)  # p[j] = row matched to column j
    for i in range(n):
        p[n] = i
        j0 = n
        minv = np.full(n, np.inf)
        way = np.full(n, n, dtype=np.int64)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            cur = cost[i0] - u[i0] - v[:n]
            free = ~used[:n]
            upd = free & (cur < minv)
            minv[upd] = cur[upd]
            way[upd] = j0
            masked = np.where(free, minv, np.inf)
            j1 = int(np.argmin(masked))
            delta = float(masked[j1])
            used_cols = np.flatnonzero(used)
            u[p[used_cols]] += delta
            v[used_cols] -= delta
            minv[free] -= delta
            j0 = j1
            if p[j0] == -1:
                break
        while j0 != n:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1
    return p[:n], u, v[:n]


@pytest.mark.parametrize(
    "shapes",
    [tall_wide_square(range(1, 41)), tall_wide_square([64, 129]), TALL],
    ids=["small", "large", "tall"],
)
def test_kernel_loop_equals_numpy_reference_bit_for_bit(shapes):
    # bytes, not np.array_equal, which takes -0.0 and +0.0 as equal
    rng = np.random.default_rng(2024)
    for padded, m in random_instances(rng, shapes):
        want_all = reference_numpy_hungarian(padded)
        for got, want in zip(_augmenting_hungarian(padded, m), want_all):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def reference_kuhn_augment(r, adj, col_to_row, banned, visited):
    rows, cols = [r], []
    todo = [iter(adj[r])]
    while todo:
        for c in todo[-1]:
            if c in banned or c in visited:
                continue
            visited.add(c)
            cols.append(c)
            owner = int(col_to_row[c])
            if owner == -1:
                for row, col in zip(rows, cols):
                    col_to_row[col] = row
                return True
            rows.append(owner)
            todo.append(iter(adj[owner]))
            break
        else:
            todo.pop()
            rows.pop()
            if cols:
                cols.pop()
    return False


def reference_lexicographic_matching(adj, row_to_col):
    """The set-copy form of the lexicographic pass, with a fresh banned and
    visited set per attempt and an O(n) rebuild after each success."""
    n = len(adj)
    match = row_to_col.copy()
    col_to_row = np.full(n, -1, dtype=np.int64)
    for i, c in enumerate(match):
        col_to_row[c] = i
    fixed: set[int] = set()
    for i in range(n):
        mi = int(match[i])
        for c in adj[i]:
            if c in fixed:
                continue
            if c == mi:
                break
            owner = int(col_to_row[c])
            col_to_row[c] = i
            col_to_row[mi] = -1
            match[i] = c
            if reference_kuhn_augment(owner, adj, col_to_row, fixed | {c}, set()):
                for cc in range(n):
                    if col_to_row[cc] >= 0:
                        match[col_to_row[cc]] = cc
                break
            col_to_row[c] = owner
            col_to_row[mi] = i
            match[i] = mi
        fixed.add(int(match[i]))
    return match


def test_lexicographic_matching_equals_set_copy_reference_on_ties():
    # integer costs leave many zero-reduced-cost edges, so the pass reroutes
    # often; the tight graph and start matching are built as solve builds them
    rng = np.random.default_rng(77)
    rerouted = 0
    for _ in range(300):
        n, m = int(rng.integers(1, 25)), int(rng.integers(1, 25))
        c = rng.integers(0, 3, size=(n, m)).astype(float)
        padded = padded_like_solve(c)
        size = padded.shape[0]
        col_to_row, u, v = _augmenting_hungarian(padded, m)
        row_to_col = np.empty(size, dtype=np.int64)
        row_to_col[col_to_row] = np.arange(size)
        reduced = padded - u[:, None] - v[None, :]
        matched_slack = float(np.abs(reduced[np.arange(size), row_to_col]).max())
        tight = reduced <= max(1e-9 * max(1.0, float(c.max())), 2.0 * matched_slack)
        adj = [np.flatnonzero(tight[i]).tolist() for i in range(size)]
        got = _lexicographic_matching(adj, row_to_col)
        want = reference_lexicographic_matching(adj, row_to_col)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        rerouted += not np.array_equal(got, row_to_col)
    assert rerouted > 100
    # random tight graphs around a permuted start matching, from sparse to
    # dense: columns fixed by earlier rows often sit on the only short route
    # back to a later row's column, so a search through them goes astray
    for _ in range(3000):
        n = int(rng.integers(1, 13))
        row_to_col = rng.permutation(n)
        edges = rng.random((n, n)) < rng.uniform(0.1, 0.9)
        edges[np.arange(n), row_to_col] = True
        adj = [np.flatnonzero(edges[i]).tolist() for i in range(n)]
        got = _lexicographic_matching(adj, row_to_col)
        want = reference_lexicographic_matching(adj, row_to_col)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        rerouted += not np.array_equal(got, row_to_col)
    assert rerouted > 2000


def test_lexicographic_matching_long_augmenting_path():
    # a zero-tie cycle, started from its rotated perfect matching: rehoming
    # row 0's column walks an augmenting path through all other rows, longer
    # than the interpreter's default recursion limit
    n = 1100
    adj = [sorted({i, (i + 1) % n}) for i in range(n)]
    start = np.array([(i + 1) % n for i in range(n)])
    match = _lexicographic_matching(adj, start)
    assert match.tolist() == list(range(n))


def test_agrees_with_scipy_on_larger_instances():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = rng.uniform(0, 100, size=(40, 40))
        mine = solve(c).total_cost
        r, k = scipy_opt.linear_sum_assignment(c)
        assert mine == pytest.approx(float(c[r, k].sum()), rel=1e-12, abs=1e-9)


def test_empty_and_nonfinite():
    a = solve(np.zeros((0, 3)))
    assert a.pairs == () and a.unmatched_cols == (0, 1, 2)
    with pytest.raises(errors.NonFiniteCost):
        solve([[np.nan]])
    with pytest.raises(errors.NonFiniteCost):
        solve([[np.inf, 1.0]])


@pytest.mark.parametrize(
    "cost",
    [[[1.0, 2.0], [3.0]], [["x", 1.0]], [[{}]], [1.0, 2.0], 3.0, np.zeros((2, 2, 2))],
    ids=["ragged", "text", "object", "1-d", "0-d", "3-d"],
)
def test_malformed_costs_raise_nonfinite(cost):
    with pytest.raises(errors.NonFiniteCost):
        solve(cost)


@pytest.mark.parametrize(
    "cost",
    [
        [["1", "2"], ["3", "0"]],
        [[b"1", b"2"], [b"3", b"0"]],
        np.array([["1", "2"], ["3", "0"]]),
        [[1.0, "2"], [3.0, 0.0]],
        np.array([[1.0, b"2"], [3.0, 0.0]], dtype=object),
    ],
    ids=["str", "bytes", "numpy-str", "mixed", "object"],
)
def test_numeric_string_costs_raise_nonfinite(cost):
    """numpy would parse each of these as [[1, 2], [3, 0]]; a string is no number."""
    with pytest.raises(errors.NonFiniteCost, match="matrix of numbers"):
        solve(cost)


@pytest.mark.parametrize(
    "cost",
    [[[1e308], [1e308]], [[1e308, -1e308], [1e308, -1e308]], [[-1e308, 1e308]]],
    ids=["sentinel", "spread", "wide"],
)
def test_overflowing_finite_costs_raise_nonfinite(cost):
    with pytest.raises(errors.NonFiniteCost):
        solve(cost)


def test_large_finite_costs_still_solve():
    a = solve([[1e300, 3e300], [2e300, 1e300], [5e299, 1e300]])
    assert a.pairs == ((1, 1), (2, 0))
