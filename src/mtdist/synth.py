"""Reproducible generation of partially labeled merge-tree ensembles.

A base tree is a random full binary tree grown from the root by repeatedly
attaching two children to a uniformly chosen leaf; edge lengths are uniform
in (0, 1] and each vertex's scalar is the negative accumulated length from
the root (root scalar 0).  A chosen fraction of the leaves receives shared
labels 1..k (the ensemble's known labels, riding on leaf identity through
perturbations); the rest get fresh labels from a high per-member range so
two members never share an unknown label.

Ensemble members are produced by perturbing the labeled base with, in order:
scalar updates (uniform noise then top-down clamping to keep the strict
decrease), rotations (reattach an internal vertex's subtree under its
grandparent), and leaf deletions (unknown-labeled leaves go first, the last
leaf is never deleted).  Magnitudes escalate with the member index.

All randomness flows through ``random.Random`` seeded by SHA-256 of
(seed, purpose) strings, so output is identical across platforms, runs and
worker counts.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import random
from dataclasses import dataclass

from . import errors
from .core import LabelTable, LabeledMergeTree, MergeTree

__all__ = [
    "UNKNOWN_LABEL_BASE",
    "PerturbationSpec",
    "EnsembleSpec",
    "random_base_tree",
    "assign_labels",
    "perturb",
    "generate_ensemble",
]

# labels >= this are "unknown" (member-private); below are ensemble-shared
UNKNOWN_LABEL_BASE = 1_000_000


def _child_seed(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{seed}/{tag}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def _checked_fields(spec, check, *names: str) -> None:
    """Hold each named field of a frozen spec as ``check`` (``errors.integer``
    or ``errors.real``) returns it."""
    for name in names:
        object.__setattr__(spec, name, check(getattr(spec, name), name))


@dataclass(frozen=True)
class PerturbationSpec:
    scalar_update_count: int
    scalar_magnitude: float
    rotation_count: int
    deletion_count: int
    seed: int

    def __post_init__(self):
        _checked_fields(
            self, errors.integer, "scalar_update_count", "rotation_count", "deletion_count", "seed"
        )
        _checked_fields(self, errors.real, "scalar_magnitude")
        if min(self.scalar_update_count, self.rotation_count, self.deletion_count) < 0:
            raise errors.ValidationError("perturbation counts must be >= 0")
        if self.scalar_magnitude < 0:
            raise errors.ValidationError("scalar magnitude must be >= 0")


@dataclass(frozen=True)
class EnsembleSpec:
    max_vertices: int
    ensemble_size: int = 20
    label_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        _checked_fields(self, errors.integer, "max_vertices", "ensemble_size", "seed")
        _checked_fields(self, errors.real, "label_fraction")
        if self.max_vertices < 3:
            raise errors.TooSmall("need max_vertices >= 3")
        if self.ensemble_size < 1:
            raise errors.ValidationError("ensemble_size must be >= 1")
        if not 0.0 <= self.label_fraction <= 1.0:
            raise errors.ValidationError("label_fraction must lie in [0, 1]")


def random_base_tree(max_vertices: int, seed: int) -> MergeTree:
    """Random full binary merge tree with the largest odd count <= max_vertices."""
    max_vertices, seed = errors.integer(max_vertices, "max_vertices"), errors.integer(seed, "seed")
    if max_vertices < 3:
        raise errors.TooSmall("a full binary tree needs at least 3 vertices")
    rng = random.Random(_child_seed(seed, "base-tree"))
    scalars = [0.0]
    parents: list[int | None] = [None]
    frontier = [0]  # childless vertices, expandable
    while len(scalars) + 2 <= max_vertices:
        leaf = frontier.pop(rng.randrange(len(frontier)))
        for _ in range(2):
            length = 1.0 - rng.random()  # uniform in (0, 1], never a zero edge
            parents.append(leaf)
            scalars.append(scalars[leaf] - length)
            frontier.append(len(scalars) - 1)
    return MergeTree(scalars, parents)


def assign_labels(
    tree: MergeTree,
    fraction: float,
    seed: int,
    *,
    unknown_base: int = UNKNOWN_LABEL_BASE,
) -> LabeledMergeTree:
    """Label ceil(fraction * #leaves) leaves 1..k; the rest get fresh labels."""
    fraction = errors.real(fraction, "fraction")
    seed, unknown_base = errors.integer(seed, "seed"), errors.integer(unknown_base, "unknown_base")
    if not 0.0 <= fraction <= 1.0:
        raise errors.ValidationError("fraction must lie in [0, 1]")
    rng = random.Random(_child_seed(seed, "labels"))
    leaves = sorted(tree.leaves)
    k = math.ceil(fraction * len(leaves))
    chosen = sorted(rng.sample(leaves, k))
    chosen_set = set(chosen)
    mapping = {i + 1: leaf for i, leaf in enumerate(chosen)}
    nxt = unknown_base + 1
    for leaf in leaves:
        if leaf not in chosen_set:
            mapping[nxt] = leaf
            nxt += 1
    return LabeledMergeTree(tree, LabelTable(mapping))


def perturb(lt: LabeledMergeTree, spec: PerturbationSpec) -> LabeledMergeTree:
    """Apply scalar updates, rotations, then leaf deletions; see module doc.

    Works on plain per-vertex lists.  The root never moves, is never a leaf
    and is never spliced, so each splice and rotation updates only the two
    children sets it touches.
    """
    return _perturb(lt, spec, None)


def _perturb(lt: LabeledMergeTree, spec: PerturbationSpec, member: int | None) -> LabeledMergeTree:
    """:func:`perturb`; with a ``member`` index, the surviving unknown labels
    are renumbered, in label order, into that member's range starting at
    UNKNOWN_LABEL_BASE * (member + 1) + 1."""
    rng = random.Random(_child_seed(spec.seed, "perturb"))
    tree = lt.tree
    n = tree.n_vertices
    n_leaves = len(tree.leaves)
    if spec.deletion_count > n_leaves - 1:
        raise errors.TooManyDeletions(
            f"cannot delete {spec.deletion_count} of {n_leaves} leaves"
        )
    root = tree.root
    scalars = tree.scalars.tolist()
    parents = tree.parents.tolist()  # the root's entry is never read
    kids = [set(c) for c in tree.all_children]  # empty once v is gone
    alive = [True] * n

    def splice_if_unary(v: int) -> None:
        """Remove v when it is a non-root vertex with exactly one child."""
        if v != root and len(kids[v]) == 1:
            child = kids[v].pop()
            up = parents[v]
            parents[child] = up
            kids[up].remove(v)
            kids[up].add(child)
            alive[v] = False

    # 1. scalar updates with top-down monotonicity repair
    for v in sorted(rng.sample(range(n), min(spec.scalar_update_count, n))):
        scalars[v] += rng.uniform(-spec.scalar_magnitude, spec.scalar_magnitude)
    span = max(scalars) - min(scalars)
    gap = 1e-9 * (span if span > 0 else 1.0)
    order = [root]
    for v in order:
        for c in kids[v]:
            if scalars[c] >= scalars[v]:
                scalars[c] = scalars[v] - gap
            order.append(c)

    # 2. rotations: reattach an internal vertex under its grandparent
    for _ in range(spec.rotation_count):
        candidates = [
            v for v in range(n) if kids[v] and v != root and parents[v] != root
        ]
        if not candidates:
            break
        v = candidates[rng.randrange(len(candidates))]
        p = parents[v]
        g = parents[p]
        parents[v] = g
        kids[p].remove(v)
        kids[g].add(v)  # scalars fall from g through p to v: v stays below g
        splice_if_unary(p)

    # 3. leaf deletions, sparing known-labeled leaves while unknowns remain
    holders = {v for l, v in lt.labels.items() if l > UNKNOWN_LABEL_BASE}
    leaves = [v for v in range(n) if alive[v] and not kids[v] and v != root]
    unknown = [v for v in leaves if v in holders]
    for _ in range(spec.deletion_count):
        if len(leaves) <= 1:
            raise errors.TooManyDeletions("would delete the last leaf")
        pool = unknown if unknown else leaves
        victim = pool.pop(rng.randrange(len(pool)))
        if pool is unknown:
            del leaves[bisect.bisect_left(leaves, victim)]
        alive[victim] = False
        parent = parents[victim]
        kids[parent].remove(victim)
        if kids[parent] or parent == root:
            splice_if_unary(parent)
        else:  # a one-child vertex left childless is a leaf now
            bisect.insort(leaves, parent)
            if parent in holders:
                bisect.insort(unknown, parent)

    keep = [v for v in range(n) if alive[v]]
    remap = {v: i for i, v in enumerate(keep)}
    kept = [(l, remap[v]) for l, v in lt.labels.items() if alive[v]]
    if member is not None:
        fresh = itertools.count(UNKNOWN_LABEL_BASE * (member + 1) + 1)
        kept = [(next(fresh) if l > UNKNOWN_LABEL_BASE else l, v) for l, v in kept]
    return LabeledMergeTree(
        MergeTree(
            [scalars[v] for v in keep],
            [None if v == root else remap[parents[v]] for v in keep],
        ),
        LabelTable(dict(kept)),
    )


def _schedule(
    spec: EnsembleSpec, base: MergeTree, preset: bool
) -> tuple[PerturbationSpec, ...]:
    """Member k gets noise 0.05*k, ceil(k/5) rotations, ceil(0.1*V) scalar
    updates and uniform 0..bound deletions. The bound is ceil(0.1*#leaves),
    or under the benchmark preset min(#leaves-1, max(1, round(0.04*k*#leaves))),
    which spreads member sizes and unknown-count imbalances widely."""
    n_leaves = len(base.leaves)
    out = []
    for k in range(1, spec.ensemble_size):
        seed = _child_seed(spec.seed, f"member-{k}")
        rng = random.Random(_child_seed(seed, "deletions"))
        bound = math.ceil(0.1 * n_leaves)
        if preset:
            bound = min(n_leaves - 1, max(1, round(0.04 * k * n_leaves)))
        out.append(
            PerturbationSpec(
                scalar_update_count=math.ceil(0.1 * base.n_vertices),
                scalar_magnitude=0.05 * k,
                rotation_count=math.ceil(k / 5),
                deletion_count=rng.randint(0, bound),
                seed=seed,
            )
        )
    return tuple(out)


def generate_ensemble(
    spec: EnsembleSpec, *, schedule_kind: str = "default"
) -> list[LabeledMergeTree]:
    """Base tree plus perturbed members, fully deterministic from the seed.

    Unknown labels are rebased per member (member i uses the range starting
    at UNKNOWN_LABEL_BASE * (i + 1)) so members never share unknowns.
    ``schedule_kind`` is "default" or "preset" (see ``_schedule``).
    """
    if schedule_kind not in ("default", "preset"):
        raise errors.ValidationError(f"unknown schedule_kind {schedule_kind!r}")
    base = random_base_tree(spec.max_vertices, _child_seed(spec.seed, "tree"))
    labeled = assign_labels(
        base, spec.label_fraction, _child_seed(spec.seed, "fractions")
    )
    members = [labeled]  # its unknowns already start at UNKNOWN_LABEL_BASE + 1
    schedule = _schedule(spec, base, schedule_kind == "preset")
    for k, pspec in enumerate(schedule, start=1):
        members.append(_perturb(labeled, pspec, k))
    return members

