"""Acceptance suite.

One test per acceptance criterion; each prints a final ``criterion N:
PASS/FAIL`` line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them).  Tolerances are pinned here and nowhere else:

  1. golden fixture distances, exact to 1e-9, all nine calls under 1 s
  2. intermediate checkpoint matrices, exact
  3. assignment kernel vs exhaustive permutation minimum, exact, 500 cases
  4. oracle lower-bounds both heuristics on 200 small random pairs, and
     every reported configuration re-evaluates to its reported distance
  5. shift invariance within 1e-9 and exact 2x scale covariance with
     unchanged trim sets and matchings, 100 random pairs
  6. M2-never-worse: zero MMB > Greedy pairs on fresh random_50/random_100
     ensembles (a nonzero count is a flagged investigation failure)
  7. runtime ordering on a random_200-style ensemble (trim-and-match at
     least 10% faster than the baseline, never slower than match-first)
     and the desk-scale suites of criterion 6 finish within 10 minutes
  8. scope note on claims that are out of reach at desk scale
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mtdist import (
    EnsembleSpec,
    build_s_matrix,
    elm_distance,
    evaluate_configuration,
    generate_ensemble,
    greedy_distance,
    mmb_distance,
    oracle_min_objective,
    solve,
    unknown_to_known_distances,
)
from mtdist.harness import distance_matrix

from conftest import oracle_pairs, random_pair, rescaled

EXACT = 1e-9


@contextmanager
def criterion(n: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {n}: FAIL  {summary}")
        raise
    print(f"\ncriterion {n}: PASS  {summary}")


@pytest.fixture(scope="module")
def desk_scale_suites():
    """Fresh random_50 and random_100 ensembles with all three method
    matrices, timed end to end (generation + 3 * 190 pairs each)."""
    started = time.perf_counter()
    suites = {}
    for name, (size, seed) in {"random_50": (50, 7), "random_100": (100, 11)}.items():
        members = generate_ensemble(
            EnsembleSpec(max_vertices=size, ensemble_size=20,
                         label_fraction=0.5, seed=seed),
            schedule_kind="preset",
        )
        corpus = [(f"m{i:02d}", m) for i, m in enumerate(members)]
        matrices = {}
        for method in ("elm", "mmb", "greedy"):
            matrix, failures, _ = distance_matrix(method, corpus, workers=1)
            matrices[method] = (matrix, failures)
        suites[name] = (members, matrices)
    return suites, time.perf_counter() - started


def test_criterion_1_golden_distances(example1, example2, example3):
    with criterion(1, "golden fixture distances, nine exact values, under 1 s"):
        started = time.perf_counter()
        expected = {
            1: (example1, 0.5, 0.5, 2.0),
            2: (example2, 0.5, 0.5, 3.0),
            3: (example3, 2.0, 0.5, 1.0),
        }
        for n, (pair, elm, mmb, greedy) in expected.items():
            a, b = pair
            assert abs(elm_distance(a, b).distance - elm) <= EXACT, n
            assert abs(mmb_distance(a, b).distance - mmb) <= EXACT, n
            assert abs(greedy_distance(a, b).distance - greedy) <= EXACT, n
        assert time.perf_counter() - started < 1.0


def test_criterion_2_intermediate_checkpoints(example1, example3):
    with criterion(2, "checkpoint matrices S, M1/M2, U_p, U_2 exact"):
        a1, b1 = example1
        s1 = build_s_matrix(a1, (3, 4), a1.leaf_labels())
        assert s1.entries.tolist() == [[2, 2, 0, 1], [3, 3, 2, 0]]
        assert s1.row_sums.tolist() == [5, 8]
        r1 = elm_distance(a1, b1)
        want = [[0, 2, 3], [2, 0, 3], [3, 3, 0]]
        assert r1.induced_a.entries.tolist() == want
        assert r1.induced_b.entries.tolist() == want

        a3, b3 = example3
        s3 = build_s_matrix(a3, (2, 3), a3.leaf_labels())
        assert s3.entries.tolist() == [[1, 0, 3, 3], [1, 1, 0, 1]]
        assert s3.row_sums.tolist() == [7, 3]
        r3 = elm_distance(a3, b3)
        assert r3.induced_a.entries.tolist() == [[0, 1, 3], [1, 0, 3], [3, 3, 1]]
        assert r3.induced_b.entries.tolist() == [[0, 3, 3], [3, 2, 3], [3, 3, 1]]

        # distance-vector checkpoints: rows {3,4} and {5} against known
        # {1,2}; only the example-1 geometry admits these values (a [5,5]
        # row is impossible under example 2's merge heights)
        up = unknown_to_known_distances(a1, (3, 4), (1, 2))
        assert up.entries.tolist() == [[5, 5], [6, 6]]
        u2 = unknown_to_known_distances(b1, (5,), (1, 2))
        assert u2.entries.tolist() == [[6, 6]]


def test_criterion_3_assignment_exhaustive():
    with criterion(3, "500 random squares n<=7: kernel equals brute force exactly"):
        rng = np.random.default_rng(2024)
        perm_tables = {
            n: np.array(list(itertools.permutations(range(n)))) for n in range(2, 8)
        }
        for _ in range(500):
            n = int(rng.integers(2, 8))
            c = rng.uniform(0.0, 10.0, size=(n, n))
            perms = perm_tables[n]
            brute = float(c[np.arange(n), perms].sum(axis=1).min())
            assert solve(c).total_cost == brute


def test_criterion_4_oracle_bounds_and_attainability():
    with criterion(4, "200 pairs: oracle <= heuristics; configurations re-evaluate"):
        for a, b in oracle_pairs(200):
            o = oracle_min_objective(a, b)
            r_elm = elm_distance(a, b)
            r_mmb = mmb_distance(a, b)
            assert o <= r_elm.distance + EXACT
            assert o <= r_mmb.distance + EXACT
            assert (
                evaluate_configuration(
                    a, b, removed=sorted(r_elm.trimmed), pairs=r_elm.matching.pairs
                )
                == r_elm.distance
            )
            removed = r_mmb.matching.unmatched_a + r_mmb.matching.unmatched_b
            assert (
                evaluate_configuration(a, b, removed=removed, pairs=r_mmb.matching.pairs)
                == r_mmb.distance
            )


def test_criterion_5_shift_and_scale():
    with criterion(5, "100 pairs: shift-invariant within 1e-9; exactly 2x-covariant"):
        for seed in range(100):
            a, b = random_pair(seed, max_vertices=13, label_fraction=0.5)
            for fn in (elm_distance, mmb_distance, greedy_distance):
                base = fn(a, b)
                shifted = fn(rescaled(a, add=0.37), rescaled(b, add=0.37))
                assert abs(shifted.distance - base.distance) < EXACT, fn.__name__
                scaled = fn(rescaled(a, mul=2.0), rescaled(b, mul=2.0))
                assert scaled.distance == 2.0 * base.distance, fn.__name__
                assert scaled.trimmed == base.trimmed
                assert scaled.matching.pairs == base.matching.pairs


def test_criterion_6_mmb_never_worse(desk_scale_suites):
    with criterion(6, "random_50 + random_100: zero MMB > Greedy pairs"):
        suites, _elapsed = desk_scale_suites
        for name, (members, matrices) in suites.items():
            greedy, g_fail = matrices["greedy"]
            mmb, m_fail = matrices["mmb"]
            assert not g_fail, f"{name}: baseline failed on pairs {g_fail[:3]}"
            assert not m_fail
            n = len(members)
            assert n == 20 and n * (n - 1) // 2 == 190
            offenders = []
            for i in range(n):
                for j in range(i + 1, n):
                    g = greedy.values[i, j]
                    m = mmb.values[i, j]
                    if m > g + EXACT * max(1.0, abs(g)):
                        offenders.append((name, i, j, m, g))
            assert not offenders, (
                "match-first beat by baseline on some pairs; this contradicts "
                f"the expected property and needs investigation: {offenders[:5]}"
            )


def test_criterion_7_runtime_ordering(desk_scale_suites):
    with criterion(
        7, "random_200: trim-and-match >=10% faster than baseline, <= match-first; "
        "desk-scale suites under 10 minutes"
    ):
        _suites, desk_elapsed = desk_scale_suites
        assert desk_elapsed < 600.0, f"desk-scale suites took {desk_elapsed:.0f}s"
        members = generate_ensemble(
            EnsembleSpec(max_vertices=200, ensemble_size=20,
                         label_fraction=0.5, seed=3),
            schedule_kind="preset",
        )
        corpus = [(f"m{i:02d}", m) for i, m in enumerate(members)]
        means = {}
        for method in ("elm", "mmb", "greedy"):
            runs = []
            for _ in range(2):
                _, _, seconds = distance_matrix(method, corpus, workers=1)
                runs.append(seconds)
            means[method] = sum(runs) / len(runs)
        assert means["elm"] <= 0.9 * means["greedy"], means
        assert means["elm"] <= means["mmb"], means


def test_criterion_8_scope_note():
    with criterion(
        8, "scope note: exact published counts/timings and the chemistry "
        "corpus are not reproducible here; criteria 3-7 stand in with "
        "property-based checks"
    ):
        # informational: the harness accepts external mtree corpora, but the
        # reference chemistry dataset is unavailable and the published
        # perturbation parameters are underspecified, so only the qualitative
        # patterns above are asserted.
        assert True
