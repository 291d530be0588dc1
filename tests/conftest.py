"""Shared fixtures and random-pair helpers.

Golden fixture trees live in tests/fixtures/ as mtree files:

  example1_* : partial agreement, known {1,2}; tree A has unknowns {3,4}
               (leaf 3 sits at scalar 1 under a merge at 2), tree B has
               unknown {5}.  Trim-and-match and match-first both give 0.5,
               the baseline gives 2.
  example2_* : partial agreement, known {1,2}; tree A carries a caterpillar
               of unknowns {3,4,5} above leaf 2, tree B has no unknowns.
               Heuristics give 0.5, the baseline pushes labels 3,4,5 onto
               leaf 2 and gives 3.
  example3_* : partial agreement, known {1,4}; tree A has unknowns {2,3},
               tree B has unknown {5}.  Trim-and-match gives 2 (it trims the
               wrong leaf), match-first gives 0.5, the baseline gives 1.

Random pairs come from small synthetic ensembles: two perturbed members of
one base tree share their known labels, which is the regime the estimators
target.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from mtdist import (
    EnsembleSpec,
    LabeledMergeTree,
    MergeTree,
    classify_agreement,
    generate_ensemble,
    read_mtree_file,
)

FIXTURES = Path(__file__).parent / "fixtures"


def load_example(n: int) -> tuple[LabeledMergeTree, LabeledMergeTree]:
    a = read_mtree_file(FIXTURES / f"example{n}_a.mtree")
    b = read_mtree_file(FIXTURES / f"example{n}_b.mtree")
    return a, b


@pytest.fixture(scope="session")
def example1():
    return load_example(1)


@pytest.fixture(scope="session")
def example2():
    return load_example(2)


@pytest.fixture(scope="session")
def example3():
    return load_example(3)


def random_pair(
    seed: int, *, max_vertices: int = 11, label_fraction: float = 0.5
) -> tuple[LabeledMergeTree, LabeledMergeTree]:
    """Two perturbed siblings from one small labeled base tree."""
    spec = EnsembleSpec(
        max_vertices=max_vertices,
        ensemble_size=3,
        label_fraction=label_fraction,
        seed=seed,
    )
    members = generate_ensemble(spec)
    return members[1], members[2]


def oracle_pairs(count: int):
    """The first ``count`` small random pairs with at most 6 combined
    unknown leaves; every fourth seed draws a disjoint-label pair."""
    seed = 0
    found = 0
    while found < count:
        if seed % 4 == 3:
            a, b = random_pair(seed, max_vertices=5, label_fraction=0.0)
        else:
            a, b = random_pair(seed, max_vertices=9, label_fraction=0.5)
        seed += 1
        info = classify_agreement(a, b)
        if info.n_unknown_a + info.n_unknown_b <= 6:
            found += 1
            yield a, b


def rescaled(lt: LabeledMergeTree, *, mul: float = 1.0, add: float = 0.0) -> LabeledMergeTree:
    """Copy with every scalar mapped to mul * s + add (mul > 0)."""
    tree = lt.tree
    parents = [None if p < 0 else int(p) for p in tree.parents]
    return LabeledMergeTree(MergeTree(tree.scalars * mul + add, parents), lt.labels)
