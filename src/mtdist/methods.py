"""Distance heuristics between partially labeled merge trees.

Three estimators share one objective.  Given a pair of trees, leaf labels are
split into *known* (shared) and *unknown* (one-sided) sets; the *pivot* tree
is the one with more unknown leaves.  A bipartite matching pairs unknown
leaves across the trees, every leaf left aside contributes a merge-height
penalty delta, and the final value is

    distance = max( 0.5 * max_i delta_i , epsilon )

where epsilon is the entrywise max absolute difference of the two LCA-scalar
matrices built over the known plus matched labels (delta over an empty set
is 0, so fully matched instances reduce to epsilon).

* ``elm_distance``  trims the pivot's shallowest unknown leaves first (ranked
  by row sums of the merge-height matrix S), then solves a square matching
  over the survivors.  Trimmed leaves pay delta.
* ``mmb_distance``  solves the rectangular matching directly, with no
  trimming; the pivot's unmatched leaves pay delta.
* ``greedy_distance``  is the prior baseline: after the matching, each
  unmatched pivot leaf keeps its label and the closest-profile leaf of the
  smaller tree additionally receives it; the distance is the epsilon of the
  induced matrices over the full unified label set (no delta term).  It
  refuses disagreement pairs, which would need an embedding to guide it.

Bipartite edge weights follow the agreement case: with shared labels, rows of
the unknown-to-known distance matrices are compared (||D1(i) - D2(j)||_2);
with fully disjoint labels there is no shared column space, so row norms of
the per-tree pairwise leaf distance matrices are compared instead
(| ||D1(i)||_2 - ||D2(j)||_2 |).  Their public helpers,
``unknown_to_known_distances`` and ``pairwise_leaf_distances``, alone call
``path_distance_many`` and so ``lca_many``; every other read of the trees (S,
delta, epsilon, induced matrices, greedy's profiles) takes leaf-table cells
through ``leaf_rows``, ``leaf_lcas`` and ``leaf_lca_pairs``.

All three run on one private pair context, ``_Pair``: it holds the label
split, the pivot and the unknown lists, and owns the steps the estimators
share, namely the bipartite matching of pivot unknowns against the other
tree's, epsilon over (vertex in a, vertex in b) pairs, and the result record.
Each public estimator is a thin wrapper that builds a fresh ``_Pair`` and
runs the estimator's own step (``_elm``, ``_mmb``, ``_greedy``) on it:
trimming, nothing, or granting labels between the matching and the
objective.  ``_Pair.match`` memoises its result by the tuple of pivot rows,
so several estimators run on one ``_Pair`` (as the harness's comparison
does) solve each distinct matching once: ``greedy`` reuses ``mmb``'s, and
``elm`` reuses it whenever it trims nothing.

``_Pair.result`` is the one place a configuration is scored and the one way
a value leaves the pair: it takes delta for every unmatched pivot label that
was not granted (so greedy has none) and epsilon over the known, matched
and granted labels, builds the objective and laps the pair's clock, so
each record's ``wall_time`` is its own step's.  The set-up goes to the first
record; a step that raises leaves its time to the next.  Delta
(``_delta_map``, and the oracle's ``delta_of``) refuses a leafless tree
against a disjoint-label one with ``DisagreementEmptyTree``: every pivot leaf
is then removed, with none left to measure a merge height from.

What a pair needs of a tree's leaves comes from the tree's leaf index
(``LabeledMergeTree.leaf_index``: leaf labels ascending, as a set, and their
vertices), found once per tree: S's columns when they are the tree's own
``leaf_labels()`` (no per-label leaf check), delta's survivors and greedy's
candidate receivers.  Delta reads two leaf-table cells per removed leaf, not
a removed x survivors block: the LCA of a removed leaf with its nearest
surviving leaf on either side in the table's DFS order, the lower of which
is the lowest LCA with any survivor (``_delta_map``), so every merge height
keeps its bits.  The oracle's ``delta_of`` scans every survivor and stays
the reference.

Epsilon has one rule for every result (``_Pair._epsilon``): over its n
known, matched and granted labels it reads 3n cells per tree, each label's
LCA scalar with itself and with its successor in each tree's leaf-table
(DFS) order, and compares the two n x 3 matrices with ``inf_norm_diff``.
The largest gap of the dense n x n matrices lies on one of those label
pairs, and rounded subtraction is monotone, so epsilon is the dense one's
bit for bit.  The row gaps behind the matching and the blocks of greedy's
grant search each hold at most ``_BLOCK_CELLS`` cells (64 KiB of float64)
where the inputs allow: a row gap block holds at least one row pair, and a
grant-search block as much as the unmatched leaves' own profiles when those
are larger.  So no pair holds an n1 x n2 x K tensor and, at benchmark
sizes, no temporary is large enough to be memory-mapped.  A result keeps the
labels and vertices its epsilon was taken over, and gathers its induced
matrices from them, in sorted label order, only when read.

A pair computes at one scale, ``_Pair.shift``: when the larger half span of
its trees lies outside [2^-503, 2^497), or a scalar's magnitude reaches
2^1022, ``_Pair`` works on both trees times a power of two that brings them
in range, so no square, sum or difference leaves float64, and scales each
value leaving it back exactly (NonFiniteCost past float64).  The copies come
from the constructors and share only the labels and leaf tables.

Greedy's grant search needs, per unmatched pivot leaf, only the first
candidate whose profile is closest to the leaf's.  ``_closest_rows``
brackets every gap through one matrix product per block of candidates, with
a margin from the floating-point dot-product bound, and recomputes with the
matching's own subtract-and-einsum arithmetic only the candidates that can
still be closest.  So the grants keep every bit, and the candidates x labels
profile matrix is never held whole.

``oracle_min_objective`` exhaustively minimizes the same objective over every
trim subset and bijection on small instances, using its own naive traversal
primitives, and is the reference the heuristics are judged against.
``oracle_distance`` records the first configuration that reaches that
minimum through ``_Pair.result``, like every other estimator.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Mapping, Sequence

import numpy as np

from . import assignment, errors
from .core import (
    Agreement,
    LabeledMatrix,
    LabeledMergeTree,
    MergeTree,
    classify_agreement,
    inf_norm_diff,
)

__all__ = [
    "SMatrix",
    "Matching",
    "MethodResult",
    "build_s_matrix",
    "select_trim",
    "unknown_to_known_distances",
    "pairwise_leaf_distances",
    "elm_distance",
    "mmb_distance",
    "greedy_distance",
    "full_agreement_distance",
    "oracle_distance",
    "oracle_min_objective",
    "evaluate_configuration",
]


@dataclass(frozen=True)
class SMatrix(LabeledMatrix):
    """Merge heights from selected leaves (rows) to a leaf subset (columns).

    Entry (i, j) = scalar(lca(v_i, v_j)) - scalar(v_i) >= 0, zero when the
    row leaf also appears as the column.  ``row_sums`` is the appended
    row-sum column used to rank rows for trimming.  As a ``LabeledMatrix``
    it refuses a label listed twice (DuplicateLabel).
    """

    row_sums: np.ndarray


@dataclass(frozen=True)
class Matching:
    """Matched label pairs plus per-side leftover unknown labels."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_a: tuple[int, ...] = ()
    unmatched_b: tuple[int, ...] = ()


@dataclass(frozen=True)
class MethodResult:
    """A distance value with full provenance.

    ``deltas`` maps each trimmed/unmatched label to its merge height;
    ``relabeling`` maps matched side-B labels to their side-A partners;
    ``assigned_labels`` (baseline only) maps an unmatched pivot label to an
    existing label of the leaf that received it on the other side.
    ``induced_a``/``induced_b`` are the two induced matrices over the known
    plus matched (and granted) labels, in sorted label order.  They are
    gathered on first read from ``unified``: those labels, both trees, and
    each label's vertex per side.
    """

    distance: float
    epsilon: float
    deltas: dict[int, float]
    matching: Matching
    relabeling: dict[int, int]
    trimmed: frozenset[int]
    wall_time: float
    assigned_labels: dict[int, int]
    unified: tuple = field(repr=False, compare=False)

    @property
    def max_delta(self) -> float:
        return max(self.deltas.values(), default=0.0)

    @functools.cached_property
    def induced_a(self) -> LabeledMatrix:
        return self._induced(0)

    @functools.cached_property
    def induced_b(self) -> LabeledMatrix:
        return self._induced(1)

    def _induced(self, side: int) -> LabeledMatrix:
        labels, trees, verts = self.unified
        v = verts[side][np.argsort(np.asarray(labels, dtype=np.int64))]
        labels = tuple(sorted(labels))
        return LabeledMatrix(labels, labels, _lca_scalars(trees[side], v, v))


# ---------------------------------------------------------------------------
# building blocks


def _require_leaves(lt: LabeledMergeTree, labels: Sequence[int]) -> np.ndarray:
    """The vertices of ``labels``; NonLeafLabel unless each is on a leaf.  The
    tree's own ``leaf_labels()`` tuple is on leaves by construction, and its
    vertices come from the leaf index."""
    leaf_labels, _, leaf_verts = lt.leaf_index()
    if labels is leaf_labels:
        return leaf_verts
    verts = lt.labels.vertices_of(labels)
    for label, v in zip(labels, verts):
        if not lt.tree.is_leaf(int(v)):
            raise errors.NonLeafLabel(f"label {label} is not on a leaf")
    return verts


def _lca_scalars(tree: MergeTree, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entry (i, j) = scalar(lca(rows[i], cols[j])) of leaves, from the leaf table."""
    return tree.scalars.take(tree.leaf_lcas(tree.leaf_rows(rows), tree.leaf_rows(cols)))


def _merge_heights(lt: LabeledMergeTree, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return _lca_scalars(lt.tree, rows, cols) - lt.tree.scalars[rows][:, None]


def build_s_matrix(
    lt: LabeledMergeTree,
    row_labels: Sequence[int],
    col_labels: Sequence[int],
) -> SMatrix:
    """Merge-height matrix with its row-sum ranking column."""
    row_labels = tuple(row_labels)
    col_labels = tuple(col_labels)
    rows = _require_leaves(lt, row_labels)
    cols = _require_leaves(lt, col_labels)
    entries = _merge_heights(lt, rows, cols)
    return SMatrix(row_labels, col_labels, entries, entries.sum(axis=1))


def select_trim(s: SMatrix, k: int) -> tuple[int, ...]:
    """The k row labels with the smallest row sums, ties to the lowest label."""
    k = errors.integer(k, "trim count")
    if k < 0:
        raise errors.ValidationError(f"cannot trim {k} rows")
    if k > len(s.row_labels):
        raise errors.KTooLarge(f"cannot trim {k} of {len(s.row_labels)} rows")
    ranked = sorted(zip(s.row_sums, s.row_labels))
    return tuple(label for _, label in ranked[:k])


def unknown_to_known_distances(
    lt: LabeledMergeTree,
    unknown: Sequence[int],
    known: Sequence[int],
) -> LabeledMatrix:
    """Path distances from each unknown-labeled vertex to the known ones."""
    unknown = tuple(unknown)
    known = tuple(known)
    rows = lt.labels.vertices_of(unknown)
    cols = lt.labels.vertices_of(known)
    d = lt.tree.path_distance_many(rows[:, None], cols[None, :])
    return LabeledMatrix(unknown, known, d.reshape(len(unknown), len(known)))


def pairwise_leaf_distances(lt: LabeledMergeTree, labels: Sequence[int]) -> LabeledMatrix:
    """Symmetric path-distance matrix over the listed leaves."""
    labels = tuple(labels)
    verts = _require_leaves(lt, labels)
    d = lt.tree.path_distance_many(verts[:, None], verts[None, :])
    return LabeledMatrix(labels, labels, d)


# Cells one block may hold.  A float64 block is then 64 KiB, under glibc's
# 128 KiB mmap threshold, so blocks come from the heap and cost no page
# faults; 1 MiB blocks were mapped and unmapped on every call.
_BLOCK_CELLS = 1 << 13


def _row_blocks(stop: int, row_cells: int):
    """Slices of rows 0..stop, each of at most _BLOCK_CELLS cells or one row."""
    step = max(1, _BLOCK_CELLS // max(row_cells, 1))
    return (slice(lo, min(lo + step, stop)) for lo in range(0, stop, step))


def _row_gaps(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """G(i, j) = || d1[i] - d2[j] ||_2^2 over shared columns, in blocks of
    d2's rows and d1's rows."""
    out = np.empty((len(d1), len(d2)))
    k = d1.shape[1]
    for cols in _row_blocks(len(d2), k):
        for rows in _row_blocks(len(d1), (cols.stop - cols.start) * k):
            diff = d1[rows, None, :] - d2[None, cols, :]
            out[rows, cols] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


_U = np.finfo(np.float64).eps / 2  # unit roundoff
_TINY = np.finfo(np.float64).smallest_subnormal


def _closest_rows(d1: np.ndarray, d2_rows, n2: int) -> np.ndarray:
    """For each row i of d1, the first j with the least ``_row_gaps(d1,
    d2)[i, j]``, bit for bit, where ``d2_rows(index)`` returns rows
    ``index`` (a slice or an index array) of an n2-row d2 never held whole.

    Each gap is first bracketed through a matrix product, per block of d2's
    rows: G~ = (||a||^2 + ||b||^2) - 2 a.b, +- a margin m.  With K columns,
    u the unit roundoff and gamma_n = n u / (1 - n u), the subtract-and-
    einsum gap E is within gamma_{K+2} G <= 2 gamma_{K+2} S of the exact gap
    G, where S = ||a||^2 + ||b||^2 (a subtraction, then a K-term sum of
    products), and G~ within 2 gamma_{K+2} S (three K-term sums of products
    and two roundings; Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, ch. 3).  The margin is 5 gamma_{K+2} times the
    computed S: the spare gamma_{K+2} S covers the rounding of S, of m and
    of the interval ends, and 8 (K + 2) smallest subnormals cover products
    that underflow.  So E lies in [G~ - m, G~ + m], and every j whose E is
    least in its row has a lower end at or below the row's least upper end.
    Those j keep their rows, gathered once, and their exact E picks the
    first least j.  A block holds at most _BLOCK_CELLS cells, or d1.size
    when d1 is larger, so d1 is read once per block of at least its rows.
    """
    n1, k = d1.shape
    s1 = np.einsum("ij,ij->i", d1, d1)
    gamma = (k + 2) * _U / (1 - (k + 2) * _U)
    tiny = 8 * (k + 2) * _TINY
    lower = np.empty((n1, n2))
    least = np.full(n1, np.inf)
    step = max(1, max(_BLOCK_CELLS, d1.size) // max(k, n1, 1))
    for block in (slice(lo, min(lo + step, n2)) for lo in range(0, n2, step)):
        d2 = d2_rows(block)
        s = s1[:, None] + np.einsum("ij,ij->i", d2, d2)
        g = s - 2.0 * (d1 @ d2.T)
        m = s * (5 * gamma) + tiny
        lower[:, block] = g - m
        np.minimum(least, (g + m).min(axis=1), out=least)
    # a NaN least keeps its whole row, and so does a NaN lower end
    ii, jj = np.nonzero(~(lower > least[:, None]))
    kept, at = np.unique(jj, return_inverse=True)
    d2 = d2_rows(kept)
    gaps = lower  # every lower end has been read
    gaps.fill(np.inf)
    for chunk in _row_blocks(len(ii), k):
        diff = d1[ii[chunk]] - d2[at[chunk]]
        gaps[ii[chunk], jj[chunk]] = np.einsum("ij,ij->i", diff, diff)
    return np.argmin(gaps, axis=1)


def _leaf_distance_rows(tree: MergeTree, rows: np.ndarray, cols: np.ndarray):
    """``index -> `` path distances from leaves ``rows[index]`` to leaves
    ``cols``, bit for bit ``tree.path_distance_many``'s, read from the leaf
    table without per-call checks."""
    s = tree.scalars
    p, q = tree.leaf_rows(rows), tree.leaf_rows(cols)
    s_rows, s_cols = s[rows], s[cols]

    def gather(index) -> np.ndarray:
        sl = s.take(tree.leaf_lcas(p[index], q))
        return (sl - s_rows[index, None]) + (sl - s_cols)

    return gather


def _row_norm_weights(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """W(i, j) = | ||d1[i]||_2 - ||d2[j]||_2 | (column spaces differ)."""
    n1 = np.sqrt(np.einsum("ij,ij->i", d1, d1))
    n2 = np.sqrt(np.einsum("ij,ij->i", d2, d2))
    return np.abs(n1[:, None] - n2[None, :])


def _delta_map(pivot: LabeledMergeTree, removed: Sequence[int]) -> dict[int, float]:
    """Merge height of each removed leaf above the nearest surviving leaf.
    Every pivot leaf is removed only when the other tree of a disjoint-label
    pair has no leaves, and then no leaf is left to measure from.
    ``removed`` holds distinct leaf labels.

    The leaves below any vertex are a run of the leaf table's (DFS) rows, so
    the LCA of a removed leaf r with a survivor only rises as the survivor
    lies further from r in that order, and the lowest is that of r's
    nearest surviving row on one side or the other.  Rounded subtraction is
    monotone, so that LCA's scalar minus r's is the least merge height bit
    for bit."""
    if not removed:
        return {}
    tree = pivot.tree
    at = pivot.labels.vertices_of(removed)
    rows = tree.leaf_rows(at)
    # a leaf survives while it carries more labels than are removed from it;
    # the survivors' leaf-table rows come out ascending, in DFS order
    labels_on = np.bincount(tree.leaf_rows(pivot.leaf_index()[2]))
    survivors = np.flatnonzero(labels_on > np.bincount(rows, minlength=len(labels_on)))
    if not len(survivors):
        raise errors.DisagreementEmptyTree("cannot compare a tree with no leaves")
    right = np.searchsorted(survivors, rows)  # the first survivor at or after
    sides = (survivors[np.maximum(right - 1, 0)], survivors[np.minimum(right, len(survivors) - 1)])
    s = tree.scalars
    lowest = np.minimum(*(s.take(tree.leaf_lca_pairs(rows, side)) for side in sides))
    return dict(zip(removed, (lowest - s[at]).tolist()))


class _Pair:
    """The work every estimator shares for one (a, b) pair: the label split,
    the pivot and its counterpart, their unknown labels, the matching,
    epsilon and the result record.  ``a``, ``b``, ``piv`` and ``oth`` are
    the trees at the pair's scale."""

    def __init__(self, a: LabeledMergeTree, b: LabeledMergeTree):
        self._lap = perf_counter()  # the set-up goes to the first record
        self.given = (a, b)  # at the caller's scale, as results report them
        self._matches: dict[tuple[int, ...], tuple] = {}
        self.info = info = classify_agreement(a, b)
        # The canonical pivot has more unknowns, ties to the lexicographically
        # smaller unknown-label list.  Unknown labels are one-sided by
        # definition (a shared leaf label is known), so equal-size lists
        # always differ and the choice is independent of argument order.
        ua, ub = info.unknown_a, info.unknown_b
        self.pivot_is_a = (-len(ua), ua) < (-len(ub), ub)
        self.piv_unknown, self.oth_unknown = (ua, ub) if self.pivot_is_a else (ub, ua)

    @functools.cached_property
    def shift(self) -> int:
        """The power of two the pair computes at, taken on first use, so that
        greedy's refusal never pays for it.  The larger half span h bounds
        every profile entry, and the largest |scalar| m every difference
        across the trees.  The shift is 0 while h is 0 or lies in
        [2^-503, 2^497) and m is below 2^1022; else it brings h just below
        2^497, but never m to 2^1022 or above, so no square, sum or
        difference leaves float64."""
        (ha, ma), (hb, mb) = (t.tree.extent for t in self.given)
        h, m = max(ha, hb), max(ma, mb)
        h_fits = h == 0 or 2.0**-503 <= h < 2.0**497
        if h_fits and m < 2.0**1022:
            return 0
        return min(0 if h_fits else 497 - math.frexp(h)[1], 1022 - math.frexp(m)[1])

    @functools.cached_property
    def _trees(self) -> tuple[LabeledMergeTree, ...]:
        """(a, b) times 2**shift under the same labels, or as given at 0."""
        if not self.shift:
            return self.given
        return tuple(LabeledMergeTree(t.tree.scaled(self.shift), t.labels) for t in self.given)

    a = property(lambda self: self._trees[0])
    b = property(lambda self: self._trees[1])
    piv = property(lambda self: self._trees[0 if self.pivot_is_a else 1])
    oth = property(lambda self: self._trees[1 if self.pivot_is_a else 0])

    def match(
        self, piv_rows: tuple[int, ...]
    ) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
        """Bipartite matching of the listed pivot unknowns against every
        unknown of the other tree; returns (side-A, side-B) label pairs and
        the pivot labels left unmatched.  Solved once per row tuple: a later
        estimator on the same pair asking for the same rows gets the
        memoised result."""
        found = self._matches.get(piv_rows)
        if found is None:
            found = self._matches[piv_rows] = self._solve_match(piv_rows)
        return found

    def _solve_match(
        self, piv_rows: tuple[int, ...]
    ) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
        oth_rows = self.oth_unknown
        if not oth_rows:
            return (), piv_rows
        partial = self.info.case is Agreement.PARTIAL
        if partial:
            d1 = unknown_to_known_distances(self.piv, piv_rows, self.info.known).entries
            d2 = unknown_to_known_distances(self.oth, oth_rows, self.info.known).entries
        else:
            d1 = pairwise_leaf_distances(self.piv, piv_rows).entries
            d2 = pairwise_leaf_distances(self.oth, oth_rows).entries
        weights = np.sqrt(_row_gaps(d1, d2)) if partial else _row_norm_weights(d1, d2)
        asn = assignment.solve(weights)
        pairs = [(piv_rows[i], oth_rows[j]) for i, j in asn.pairs]
        if not self.pivot_is_a:
            pairs = [(o, p) for p, o in pairs]
        return tuple(pairs), tuple(piv_rows[i] for i in asn.unmatched_rows)

    @functools.cached_property
    def _known_vertices(self) -> tuple[np.ndarray, np.ndarray]:
        known = self.info.known
        return self.a.labels.vertices_of(known), self.b.labels.vertices_of(known)

    def columns(self, pairs_ab: Sequence[tuple[int, int]], grants: Mapping | None = None) -> tuple:
        """The known labels, the matched ones under their side-A names, then
        the granted pivot labels, with their vertices in a and in b in that
        order; ``grants`` maps a pivot label to a label of the other tree's
        leaf that received it."""
        at = {la: (la, lb) for la, lb in pairs_ab}
        for label, anchor in (grants or {}).items():  # it sits on the anchor's leaf
            at[label] = (label, anchor) if self.pivot_is_a else (anchor, label)
        sides = list(zip(*at.values())) or [(), ()]  # side-A labels, side-B labels
        extra = (t.labels.vertices_of(ls) for t, ls in zip((self.a, self.b), sides))
        cols = list(map(np.concatenate, zip(self._known_vertices, extra)))
        return self.info.known + tuple(at), cols

    def _epsilon(self, labels: tuple[int, ...], cols: Sequence[np.ndarray]) -> float:
        """Epsilon over ``labels`` at vertices ``cols`` (one array per tree):
        each label against itself and against its successor in each tree's
        leaf-table order (the last is its own): 3n cells for 3n - 2 of the
        n^2 label pairs.  With A, B the LCA-scalar matrices and
        w = lca_a(i, j): the labels below w are a run in a's order (labels
        on one leaf sort together, as a grant and its anchor do), whose LCA
        in b is the highest of its neighbours', so a neighbour pair t in it
        has B(t) >= B(i, j) and A(t) <= A(i, j).  So max(B - A) lies on the
        diagonal or a's neighbours, max(A - B) on it or b's, and as rounded
        subtraction is monotone and odd, max |fl(A - B)| is the dense one's,
        bit for bit."""
        trees = (self.a.tree, self.b.tree)
        rows = [t.leaf_rows(v) for t, v in zip(trees, cols)]
        partners = [np.arange(len(labels))]  # column 0: the label itself
        for r in rows:  # columns 1 and 2: its successor in a's order, in b's
            order = np.argsort(r, kind="stable")
            successor = np.empty_like(partners[0])
            successor[order] = np.concatenate((order[1:], order[-1:]))
            partners.append(successor)
        q = np.stack(partners, axis=1)
        a, b = (
            LabeledMatrix(labels, (0, 1, 2), t.scalars.take(t.leaf_lca_pairs(r[:, None], r[q])))
            for t, r in zip(trees, rows)
        )
        return inf_norm_diff(a, b)

    def unscaled(self, x: float) -> float:
        """x at the given trees' scale, exactly; NonFiniteCost past float64."""
        if not math.isfinite(x) or math.frexp(x)[1] - self.shift > 1024:
            raise errors.NonFiniteCost(f"a value of {x} * 2**{-self.shift} is past float64")
        return math.ldexp(x, -self.shift)

    def result(
        self,
        pairs_ab: Sequence[tuple[int, int]] = (),
        unmatched_piv: Sequence[int] = (),
        trimmed: Sequence[int] = (),
        grants: Mapping[int, int] | None = None,
    ) -> MethodResult:
        """The record of one configuration, timed from the previous record or
        the set-up.  Every unmatched pivot label without a grant pays delta;
        epsilon is taken over the labels of :meth:`columns`."""
        grants, unmatched_piv = dict(grants or {}), tuple(unmatched_piv)
        removed = [l for l in unmatched_piv if l not in grants]
        deltas = _delta_map(self.piv, removed)
        if self.shift:
            deltas = {l: self.unscaled(d) for l, d in deltas.items()}
        labels, cols = self.columns(pairs_ab, grants)
        eps = self.unscaled(self._epsilon(labels, cols))
        now = perf_counter()
        wall_time, self._lap = now - self._lap, now
        return MethodResult(
            distance=max(0.5 * max(deltas.values(), default=0.0), eps),
            epsilon=eps,
            deltas=deltas,
            matching=Matching(
                pairs=tuple(sorted(pairs_ab)),
                unmatched_a=unmatched_piv if self.pivot_is_a else (),
                unmatched_b=() if self.pivot_is_a else unmatched_piv,
            ),
            relabeling={lb: la for la, lb in pairs_ab},
            trimmed=frozenset(trimmed),
            wall_time=wall_time,
            assigned_labels=grants,
            unified=(labels, tuple(t.tree for t in self.given), tuple(cols)),
        )


# ---------------------------------------------------------------------------
# the estimators


def full_agreement_distance(a: LabeledMergeTree, b: LabeledMergeTree) -> MethodResult:
    """Entrywise max difference of the induced matrices over the shared labels."""
    p = _Pair(a, b)
    if p.info.case is not Agreement.FULL:
        raise errors.NotFullAgreement(f"leaf label sets differ ({p.info.case.value})")
    return p.result()


def elm_distance(a: LabeledMergeTree, b: LabeledMergeTree) -> MethodResult:
    """Trim-then-match estimator.

    The pivot's |n1' - n2'| shallowest unknown leaves (smallest S row sums)
    are set aside, the survivors are matched one-to-one against the other
    tree's unknowns, and each trimmed leaf contributes half its merge height
    above the nearest surviving leaf.
    """
    return _elm(_Pair(a, b))


def mmb_distance(a: LabeledMergeTree, b: LabeledMergeTree) -> MethodResult:
    """Match-first estimator: no trimming.

    The rectangular matching covers min(n1', n2') unknown leaves; every
    unmatched pivot leaf contributes half its merge height above the nearest
    leaf outside the unmatched set.
    """
    return _mmb(_Pair(a, b))


def greedy_distance(a: LabeledMergeTree, b: LabeledMergeTree) -> MethodResult:
    """Prior baseline: unmatched pivot leaves push their labels across.

    After the rectangular matching, each unmatched pivot leaf's distance
    profile to the newly known labels is compared against every leaf of the
    smaller tree; the closest leaf additionally receives the label.  The
    distance is the epsilon over the full unified label set.
    """
    return _greedy(_Pair(a, b))


def _elm(p: _Pair) -> MethodResult:
    k = len(p.piv_unknown) - len(p.oth_unknown)
    trimmed = ()
    if k:  # with nothing to trim, S would rank rows for nothing
        trimmed = select_trim(build_s_matrix(p.piv, p.piv_unknown, p.piv.leaf_labels()), k)
    cut = set(trimmed)
    pairs_ab, _ = p.match(tuple(l for l in p.piv_unknown if l not in cut))
    return p.result(pairs_ab, trimmed, trimmed=trimmed)


def _mmb(p: _Pair) -> MethodResult:
    return p.result(*p.match(p.piv_unknown))


def _greedy(p: _Pair) -> MethodResult:
    if p.info.case is Agreement.DISAGREEMENT:
        raise errors.DisagreementUnsupported(
            "baseline needs embedding coordinates when no labels are shared"
        )
    pairs_ab, unmatched = p.match(p.piv_unknown)
    piv, oth = p.piv, p.oth
    grants: dict[int, int] = {}
    if unmatched:
        # newly known = original known plus matched labels, by unified name
        labels, cols = p.columns(pairs_ab)
        newly = np.argsort(np.asarray(labels, dtype=np.int64))
        piv_nk, oth_nk = (c[newly] for c in (cols if p.pivot_is_a else cols[::-1]))
        # candidate receivers: leaves of the smaller tree, by smallest label
        cand = list(dict.fromkeys(oth.leaf_index()[2].tolist()))
        ds_rows = _leaf_distance_rows(oth.tree, np.asarray(cand, dtype=np.int64), oth_nk)
        dmat = _leaf_distance_rows(piv.tree, piv.labels.vertices_of(unmatched), piv_nk)(slice(None))
        for label, c in zip(unmatched, _closest_rows(dmat, ds_rows, len(cand)).tolist()):
            grants[label] = oth.labels.labels_of(cand[c])[0]
    return p.result(pairs_ab, unmatched, grants=grants)


# ---------------------------------------------------------------------------
# configuration re-evaluation and the exhaustive reference


def evaluate_configuration(
    a: LabeledMergeTree,
    b: LabeledMergeTree,
    *,
    removed: Sequence[int],
    pairs: Sequence[tuple[int, int]],
) -> float:
    """Objective value of an explicit (removed set, matching) configuration.

    ``removed`` holds pivot-side labels set aside (trimmed or unmatched);
    ``pairs`` are (side-A label, side-B label) matches.  Uses the same
    epsilon/delta computations as the estimators, so re-evaluating a
    reported configuration reproduces the reported distance exactly.
    Raises DisagreementEmptyTree as ``elm``/``mmb`` do, and ValidationError
    unless ``removed`` and ``pairs`` hold each unknown label once, on its side.
    """
    p = _Pair(a, b)
    try:
        removed, pairs = tuple(removed), tuple(map(tuple, pairs))
    except TypeError:
        raise errors.ValidationError("removed and each pair must be sequences of labels") from None
    if any(len(pair) != 2 for pair in pairs):
        raise errors.ValidationError("pairs must be (side-A label, side-B label) pairs")
    piv = 0 if p.pivot_is_a else 1
    for got, want in (
        (removed + tuple(pair[piv] for pair in pairs), p.piv_unknown),
        (tuple(pair[1 - piv] for pair in pairs), p.oth_unknown),
    ):
        try:
            same = len(got) == len(want) and set(got) == set(want)
        except TypeError:  # an unhashable label
            same = False
        if not same:
            raise errors.ValidationError(f"labels {got} are not the unknowns {want}, each once")
    return p.result(pairs, removed).distance


def _naive_lca(parents: Sequence[int], u: int, v: int) -> int:
    chain = set()
    x = u
    while x != -1:
        chain.add(x)
        x = parents[x]
    x = v
    while x not in chain:
        x = parents[x]
    return x


# Combined unknown leaves the exhaustive search takes at most.
_ORACLE_MAX_UNKNOWN = 8


def oracle_min_objective(a: LabeledMergeTree, b: LabeledMergeTree) -> float:
    """Exhaustive minimum of the shared objective on small instances.

    Enumerates every trim subset of the required size and every bijection
    between the surviving unknown leaves, scoring each configuration with
    naive parent-walk primitives (independent of the vectorized code paths).
    Raises TooLarge beyond ``_ORACLE_MAX_UNKNOWN`` combined unknown leaves.
    """
    p = _Pair(a, b)
    return p.unscaled(_oracle_search(p)[0])


def oracle_distance(a: LabeledMergeTree, b: LabeledMergeTree) -> MethodResult:
    """The record of the first configuration reaching ``oracle_min_objective``:
    its trim subset is the record's trimmed set and pays delta."""
    p = _Pair(a, b)
    _, removed, pairs_ab = _oracle_search(p)
    return p.result(pairs_ab, removed, trimmed=removed)


def _oracle_search(p: _Pair) -> tuple[float, tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The minimum, with the removed pivot labels and the (side-A, side-B)
    pairs of the first configuration that reaches it."""
    a, b, info = p.a, p.b, p.info
    total = len(p.piv_unknown) + len(p.oth_unknown)
    if total > _ORACLE_MAX_UNKNOWN:
        raise errors.TooLarge(
            f"{total} combined unknown leaves exceeds the bound {_ORACLE_MAX_UNKNOWN}"
        )

    pa, pb = ([int(x) for x in t.tree.parents] for t in (a, b))
    sa, sb = a.tree.scalars, b.tree.scalars

    def eps_of(pairs_ab) -> float:
        labels = {l: (l, l) for l in info.known}
        for la, lb in pairs_ab:
            labels[la] = (la, lb)
        ordered = sorted(labels)
        worst = 0.0
        for i, li in enumerate(ordered):
            for lj in ordered[i:]:
                ua = a.labels.vertex_of(labels[li][0])
                va = a.labels.vertex_of(labels[lj][0])
                ub = b.labels.vertex_of(labels[li][1])
                vb = b.labels.vertex_of(labels[lj][1])
                ea = sa[_naive_lca(pa, ua, va)]
                eb = sb[_naive_lca(pb, ub, vb)]
                worst = max(worst, abs(float(ea) - float(eb)))
        return worst

    piv = p.piv
    piv_par, piv_s = (pa, sa) if p.pivot_is_a else (pb, sb)
    k = len(p.piv_unknown) - len(p.oth_unknown)

    def delta_of(removed: tuple[int, ...]) -> float:
        worst = 0.0
        removed_set = set(removed)
        for r in removed:
            vr = piv.labels.vertex_of(r)
            best = None
            for l in piv.leaf_labels():
                if l in removed_set:
                    continue
                vl = piv.labels.vertex_of(l)
                h = float(piv_s[_naive_lca(piv_par, vr, vl)] - piv_s[vr])
                best = h if best is None else min(best, h)
            if best is None:  # as in _delta_map
                raise errors.DisagreementEmptyTree("cannot compare a tree with no leaves")
            worst = max(worst, best)
        return worst

    best = (float("inf"), (), ())
    for removed in itertools.combinations(p.piv_unknown, k):
        survivors = [l for l in p.piv_unknown if l not in removed]
        dmax = delta_of(removed)
        for perm in itertools.permutations(p.oth_unknown):
            pairs_po = tuple(zip(survivors, perm))
            pairs_ab = pairs_po if p.pivot_is_a else tuple((o, q) for q, o in pairs_po)
            value = max(0.5 * dmax, eps_of(pairs_ab))
            if value < best[0]:
                best = (value, removed, pairs_ab)
    return best
