"""Hungarian kernel: optimality against brute force, determinism, edge cases."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtdist import errors, solve
from mtdist.assignment import _lexicographic_matching


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
