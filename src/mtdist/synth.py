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

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable

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
    "default_schedule",
    "preset_schedule",
]

# labels >= this are "unknown" (member-private); below are ensemble-shared
UNKNOWN_LABEL_BASE = 1_000_000


def _child_seed(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{seed}/{tag}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class PerturbationSpec:
    scalar_update_count: int
    scalar_magnitude: float
    rotation_count: int
    deletion_count: int
    seed: int

    def __post_init__(self):
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
    perturbation_schedule: tuple[PerturbationSpec, ...] | None = None

    def __post_init__(self):
        if self.max_vertices < 3:
            raise errors.TooSmall("need max_vertices >= 3")
        if self.ensemble_size < 1:
            raise errors.ValidationError("ensemble_size must be >= 1")
        if not 0.0 <= self.label_fraction <= 1.0:
            raise errors.ValidationError("label_fraction must lie in [0, 1]")
        sched = self.perturbation_schedule
        if sched is not None and len(sched) != self.ensemble_size - 1:
            raise errors.ValidationError(
                "schedule needs one entry per perturbed member "
                f"({self.ensemble_size - 1}), got {len(sched)}"
            )


def random_base_tree(max_vertices: int, seed: int) -> MergeTree:
    """Random full binary merge tree with the largest odd count <= max_vertices."""
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
    tree = MergeTree(scalars, parents)
    tree.validate()
    return tree


def assign_labels(
    tree: MergeTree,
    fraction: float,
    seed: int,
    *,
    unknown_base: int = UNKNOWN_LABEL_BASE,
) -> LabeledMergeTree:
    """Label ceil(fraction * #leaves) leaves 1..k; the rest get fresh labels."""
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
    lt = LabeledMergeTree(tree, LabelTable(mapping))
    lt.validate()
    return lt


class _MutableTree:
    """Scratch representation used during perturbation."""

    def __init__(self, lt: LabeledMergeTree):
        t = lt.tree
        self.scalars = [float(x) for x in t.scalars]
        self.parents = [None if p < 0 else int(p) for p in t.parents]
        self.alive = [True] * t.n_vertices
        self.labels = {l: v for l, v in lt.labels.items()}

    def children_map(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {v: [] for v in range(len(self.scalars)) if self.alive[v]}
        for v, p in enumerate(self.parents):
            if self.alive[v] and p is not None:
                kids[p].append(v)
        return kids

    def root(self) -> int:
        for v, p in enumerate(self.parents):
            if self.alive[v] and p is None:
                return v
        raise errors.CycleDetected("lost the root during perturbation")

    def leaves(self) -> list[int]:
        kids = self.children_map()
        r = self.root()
        return [v for v, ks in kids.items() if not ks and v != r]

    def splice_if_unary(self, v: int) -> None:
        """Remove v when it is a live non-root vertex with exactly one child."""
        if not self.alive[v] or self.parents[v] is None:
            return
        kids = [c for c, p in enumerate(self.parents) if self.alive[c] and p == v]
        if len(kids) != 1:
            return
        (child,) = kids
        self.parents[child] = self.parents[v]
        self.alive[v] = False

    def freeze(self) -> LabeledMergeTree:
        keep = [v for v in range(len(self.scalars)) if self.alive[v]]
        remap = {v: i for i, v in enumerate(keep)}
        tree = MergeTree(
            [self.scalars[v] for v in keep],
            [remap[self.parents[v]] if self.parents[v] is not None else None for v in keep],
        )
        table = LabelTable({l: remap[v] for l, v in self.labels.items() if self.alive[v]})
        lt = LabeledMergeTree(tree, table)
        lt.validate()
        return lt


def perturb(lt: LabeledMergeTree, spec: PerturbationSpec) -> LabeledMergeTree:
    """Apply scalar updates, rotations, then leaf deletions; see module doc."""
    rng = random.Random(_child_seed(spec.seed, "perturb"))
    mt = _MutableTree(lt)
    n_leaves = len(lt.tree.leaves)
    if spec.deletion_count > n_leaves - 1:
        raise errors.TooManyDeletions(
            f"cannot delete {spec.deletion_count} of {n_leaves} leaves"
        )

    # 1. scalar updates with top-down monotonicity repair
    live = [v for v in range(len(mt.scalars)) if mt.alive[v]]
    count = min(spec.scalar_update_count, len(live))
    for v in sorted(rng.sample(live, count)):
        mt.scalars[v] += rng.uniform(-spec.scalar_magnitude, spec.scalar_magnitude)
    span = max(mt.scalars) - min(mt.scalars)
    gap = 1e-9 * (span if span > 0 else 1.0)
    order = [mt.root()]
    kids = mt.children_map()
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for c in kids.get(v, ()):
            if mt.scalars[c] >= mt.scalars[v]:
                mt.scalars[c] = mt.scalars[v] - gap
            order.append(c)

    # 2. rotations: reattach an internal vertex under its grandparent
    for _ in range(spec.rotation_count):
        kids = mt.children_map()
        candidates = sorted(
            v
            for v in kids
            if kids[v]
            and mt.parents[v] is not None
            and mt.parents[mt.parents[v]] is not None
        )
        if not candidates:
            break
        v = candidates[rng.randrange(len(candidates))]
        p = mt.parents[v]
        g = mt.parents[p]
        mt.parents[v] = g
        if mt.scalars[v] >= mt.scalars[g]:  # defensive; moving up preserves order
            mt.scalars[v] = mt.scalars[g] - gap
        mt.splice_if_unary(p)

    # 3. leaf deletions, sparing known-labeled leaves while unknowns remain
    for _ in range(spec.deletion_count):
        leaves = sorted(mt.leaves())
        if len(leaves) <= 1:
            raise errors.TooManyDeletions("would delete the last leaf")
        holders = {w for l, w in mt.labels.items() if l > UNKNOWN_LABEL_BASE}
        unknown = [v for v in leaves if v in holders]
        pool = unknown if unknown else leaves
        victim = pool[rng.randrange(len(pool))]
        parent = mt.parents[victim]
        mt.alive[victim] = False
        mt.labels = {l: v for l, v in mt.labels.items() if v != victim}
        if parent is not None:
            mt.splice_if_unary(parent)

    return mt.freeze()


def _schedule(
    spec: EnsembleSpec, base: MergeTree, deletion_bound: Callable[[int], int]
) -> tuple[PerturbationSpec, ...]:
    """Member k gets noise 0.05*k, ceil(k/5) rotations, ceil(0.1*V) scalar
    updates and uniform 0..deletion_bound(k) deletions."""
    out = []
    for k in range(1, spec.ensemble_size):
        seed = _child_seed(spec.seed, f"member-{k}")
        rng = random.Random(_child_seed(seed, "deletions"))
        out.append(
            PerturbationSpec(
                scalar_update_count=math.ceil(0.1 * base.n_vertices),
                scalar_magnitude=0.05 * k,
                rotation_count=math.ceil(k / 5),
                deletion_count=rng.randint(0, deletion_bound(k)),
                seed=seed,
            )
        )
    return tuple(out)


def default_schedule(
    spec: EnsembleSpec, base: MergeTree
) -> tuple[PerturbationSpec, ...]:
    """Escalating defaults: up to ceil(0.1*#leaves) deletions per member."""
    bound = math.ceil(0.1 * len(base.leaves))
    return _schedule(spec, base, lambda k: bound)


def preset_schedule(
    spec: EnsembleSpec, base: MergeTree
) -> tuple[PerturbationSpec, ...]:
    """Benchmark-preset schedule: deletions also escalate with the member
    index (uniform in [0, round(0.04*k*#leaves)]), giving ensembles whose
    member sizes and unknown-count imbalances spread widely."""
    n_leaves = len(base.leaves)
    return _schedule(
        spec, base, lambda k: min(n_leaves - 1, max(1, round(0.04 * k * n_leaves)))
    )


def generate_ensemble(
    spec: EnsembleSpec, *, schedule_kind: str = "default"
) -> list[LabeledMergeTree]:
    """Base tree plus perturbed members, fully deterministic from the seed.

    Unknown labels are rebased per member (member i uses the range starting
    at UNKNOWN_LABEL_BASE * (i + 1)) so members never share unknowns.
    """
    base = random_base_tree(spec.max_vertices, _child_seed(spec.seed, "tree"))
    labeled = assign_labels(
        base, spec.label_fraction, _child_seed(spec.seed, "fractions")
    )
    if spec.perturbation_schedule is not None:
        schedule = spec.perturbation_schedule
    elif schedule_kind == "preset":
        schedule = preset_schedule(spec, base)
    else:
        schedule = default_schedule(spec, base)
    members = [_rebase_unknowns(labeled, 0)]
    for k, pspec in enumerate(schedule, start=1):
        members.append(_rebase_unknowns(perturb(labeled, pspec), k))
    return members


def _rebase_unknowns(lt: LabeledMergeTree, member: int) -> LabeledMergeTree:
    base = UNKNOWN_LABEL_BASE * (member + 1)
    mapping = {}
    nxt = base + 1
    for label, vertex in lt.labels.items():
        if label > UNKNOWN_LABEL_BASE:
            mapping[nxt] = vertex
            nxt += 1
        else:
            mapping[label] = vertex
    return LabeledMergeTree(lt.tree, LabelTable(mapping))
