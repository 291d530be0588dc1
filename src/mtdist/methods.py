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
(| ||D1(i)||_2 - ||D2(j)||_2 |).

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

The known x known block of the LCA-scalar matrices is the same for every
estimator on a pair, so the pair takes its epsilon once and keeps only that
float.  Every epsilon gathers just its matched or granted rows against all
columns (known labels first) and takes the larger of the block's epsilon and
the rows': the rest of the full block mirrors those rows, and a max does not
depend on how its entries are grouped.  So these gathers, like the row gaps
behind the matching and greedy's grants, run in row blocks of at most
``_BLOCK_CELLS`` cells: no pair holds an n1 x n2 x K tensor.  A result keeps
the labels and vertices its epsilon was taken over, and gathers its induced
matrices from them, in sorted label order, only when read.

``oracle_min_objective`` exhaustively minimizes the same objective over every
trim subset and bijection on small instances, using its own naive traversal
primitives, and is the reference the heuristics are judged against.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Mapping, Sequence

import numpy as np

from . import assignment, errors
from .core import (
    Agreement,
    AgreementInfo,
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
    "oracle_min_objective",
    "evaluate_configuration",
]


@dataclass(frozen=True)
class SMatrix:
    """Merge heights from selected leaves (rows) to a leaf subset (columns).

    Entry (i, j) = scalar(lca(v_i, v_j)) - scalar(v_i) >= 0, zero when the
    row leaf also appears as the column.  ``row_sums`` is the appended
    row-sum column used to rank rows for trimming.
    """

    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]
    entries: np.ndarray
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
    each label's vertex per side.  Without it they are empty.
    """

    distance: float
    epsilon: float
    deltas: dict[int, float]
    matching: Matching
    relabeling: dict[int, int]
    trimmed: frozenset[int]
    wall_time: float
    assigned_labels: dict[int, int] = field(default_factory=dict)
    unified: tuple = field(default=(), repr=False, compare=False)

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
        if not self.unified:
            return LabeledMatrix((), (), np.zeros((0, 0)))
        labels, trees, verts = self.unified
        v = verts[side][np.argsort(np.asarray(labels, dtype=np.int64))]
        labels = tuple(sorted(labels))
        return LabeledMatrix(labels, labels, _lca_scalars(trees[side], v, v))


# ---------------------------------------------------------------------------
# building blocks


def _require_leaves(lt: LabeledMergeTree, labels: Sequence[int]) -> np.ndarray:
    verts = lt.vertices_for(labels)
    for label, v in zip(labels, verts):
        if not lt.tree.is_leaf(int(v)):
            raise errors.NonLeafLabel(f"label {label} is not on a leaf")
    return verts


def _lca_scalars(tree: MergeTree, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Entry (i, j) = scalar(lca(rows[i], cols[j]))."""
    return tree.scalars[tree.lca_many(rows[:, None], cols[None, :])]


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
    rows = lt.vertices_for(unknown)
    cols = lt.vertices_for(known)
    d = lt.tree.path_distance_many(rows[:, None], cols[None, :])
    return LabeledMatrix(unknown, known, d.reshape(len(unknown), len(known)))


def pairwise_leaf_distances(lt: LabeledMergeTree, labels: Sequence[int]) -> LabeledMatrix:
    """Symmetric path-distance matrix over the listed leaves."""
    labels = tuple(labels)
    verts = _require_leaves(lt, labels)
    d = lt.tree.path_distance_many(verts[:, None], verts[None, :])
    return LabeledMatrix(labels, labels, d)


# Cells one row block may hold.  Every benchmark-size gather (122,500 cells
# at most) fits in one block; a cap of 2**20 let greedy's blocks outgrow its
# old per-leaf temporaries and raised known_500's peak RSS from 48 to 60 MB.
_BLOCK_CELLS = 1 << 17


def _row_blocks(first: int, stop: int, row_cells: int):
    """Slices of rows first..stop, each of at most _BLOCK_CELLS cells or one row."""
    step = max(1, _BLOCK_CELLS // max(row_cells, 1))
    return (slice(lo, min(lo + step, stop)) for lo in range(first, stop, step))


def _row_gaps(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """G(i, j) = || d1[i] - d2[j] ||_2^2 over shared columns, in blocks of d1's rows."""
    out = np.empty((len(d1), len(d2)))
    for rows in _row_blocks(0, len(d1), d2.size):
        diff = d1[rows, None, :] - d2[None, :, :]
        out[rows] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def _row_norm_weights(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """W(i, j) = | ||d1[i]||_2 - ||d2[j]||_2 | (column spaces differ)."""
    n1 = np.sqrt(np.einsum("ij,ij->i", d1, d1))
    n2 = np.sqrt(np.einsum("ij,ij->i", d2, d2))
    return np.abs(n1[:, None] - n2[None, :])


def _pivot_is_a(info: AgreementInfo) -> bool:
    """Canonical pivot choice: more unknowns, ties to the lexicographically
    smaller unknown-label list.  Unknown labels are one-sided by definition
    (a shared leaf label is known), so equal-size lists always differ and
    the choice is independent of argument order."""
    if info.n_unknown_a != info.n_unknown_b:
        return info.n_unknown_a > info.n_unknown_b
    return info.unknown_a < info.unknown_b


def _delta_map(
    pivot: LabeledMergeTree,
    removed: Sequence[int],
    leaf_labels: Sequence[int],
) -> dict[int, float]:
    """Merge height of each removed leaf above the nearest surviving leaf."""
    removed = tuple(removed)
    if not removed:
        return {}
    removed_set = set(removed)
    survivors = [l for l in leaf_labels if l not in removed_set]
    rows = pivot.vertices_for(removed)
    cols = pivot.vertices_for(survivors)
    heights = _merge_heights(pivot, rows, cols)
    return {label: float(h.min()) for label, h in zip(removed, heights)}


def _objective(eps: float, deltas: Mapping[int, float]) -> float:
    return max(0.5 * max(deltas.values(), default=0.0), eps)


def _check_leaves_for_disagreement(a, b, info):
    if info.case is Agreement.DISAGREEMENT and (
        not a.tree.leaves or not b.tree.leaves
    ):
        raise errors.DisagreementEmptyTree("cannot compare a tree with no leaves")


class _Pair:
    """The work every estimator shares for one (a, b) pair: the label split,
    the pivot and its counterpart, their unknown labels, the matching, the
    epsilon of the known x known block, and the result record."""

    def __init__(self, a: LabeledMergeTree, b: LabeledMergeTree):
        self.start = perf_counter()
        self.a, self.b = a, b
        self._matches: dict[tuple[int, ...], tuple] = {}
        self.info = info = classify_agreement(a, b)
        self.pivot_is_a = _pivot_is_a(info)
        sides = ((a, info.unknown_a), (b, info.unknown_b))
        piv, oth = sides if self.pivot_is_a else sides[::-1]
        (self.piv, self.piv_unknown), (self.oth, self.oth_unknown) = piv, oth

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
        if self.info.case is Agreement.PARTIAL:
            d1 = unknown_to_known_distances(self.piv, piv_rows, self.info.known)
            d2 = unknown_to_known_distances(self.oth, oth_rows, self.info.known)
            weights = np.sqrt(_row_gaps(d1.entries, d2.entries))
        else:
            d1 = pairwise_leaf_distances(self.piv, piv_rows)
            d2 = pairwise_leaf_distances(self.oth, oth_rows)
            weights = _row_norm_weights(d1.entries, d2.entries)
        asn = assignment.solve(weights)
        pairs = [(piv_rows[i], oth_rows[j]) for i, j in asn.pairs]
        if not self.pivot_is_a:
            pairs = [(o, p) for p, o in pairs]
        return tuple(pairs), tuple(piv_rows[i] for i in asn.unmatched_rows)

    def matched(self, pairs_ab: Sequence[tuple[int, int]]) -> dict[int, tuple[int, int]]:
        """Matched labels under their side-A names, each mapped to its
        (vertex in a, vertex in b)."""
        a, b = self.a.labels, self.b.labels
        return {la: (a.vertex_of(la), b.vertex_of(lb)) for la, lb in pairs_ab}

    @functools.cached_property
    def _known_vertices(self) -> tuple[np.ndarray, np.ndarray]:
        known = self.info.known
        return self.a.vertices_for(known), self.b.vertices_for(known)

    def columns(
        self, extra: Mapping[int, tuple[int, int]]
    ) -> tuple[tuple[int, ...], list[np.ndarray]]:
        """The known labels then ``extra``'s, with their vertices in a and in
        b in that order."""
        cols = [
            np.concatenate((kv, np.asarray([v[side] for v in extra.values()], dtype=np.int64)))
            for side, kv in enumerate(self._known_vertices)
        ]
        return self.info.known + tuple(extra), cols

    def _eps_rows(self, labels: tuple[int, ...], cols: Sequence[np.ndarray], first: int) -> float:
        """Epsilon over rows ``first:`` of the labels x labels block at vertices ``cols``."""
        eps, trees = 0.0, (self.a.tree, self.b.tree)
        for rows in _row_blocks(first, len(labels), len(labels)):
            g = [_lca_scalars(t, v[rows], v) for t, v in zip(trees, cols)]
            eps = max(eps, inf_norm_diff(*(LabeledMatrix(labels[rows], labels, m) for m in g)))
        return eps

    @functools.cached_property
    def _known_eps(self) -> float:
        """Epsilon over the known x known block, gathered once per pair; only
        the float is kept."""
        return self._eps_rows(self.info.known, self._known_vertices, 0)

    def induced(self, extra: Mapping[int, tuple[int, int]]) -> tuple[float, tuple]:
        """Epsilon over the known labels plus ``extra``'s, each mapped to its
        (vertex in a, vertex in b), and the labels, trees and vertices a
        result gathers its induced matrices from.  Besides the known corner,
        only the extra rows are gathered: the rest of the block mirrors them."""
        labels, cols = self.columns(extra)
        rows_eps = self._eps_rows(labels, cols, len(self.info.known))
        return max(self._known_eps, rows_eps), (labels, (self.a.tree, self.b.tree), tuple(cols))

    def result(
        self,
        induced: tuple[float, tuple],
        pairs_ab: Sequence[tuple[int, int]] = (),
        unmatched_piv: Sequence[int] = (),
        deltas: dict[int, float] | None = None,
        trimmed: Sequence[int] = (),
        assigned: dict[int, int] | None = None,
    ) -> MethodResult:
        eps, unified = induced
        deltas = deltas or {}
        unmatched_piv = tuple(unmatched_piv)
        return MethodResult(
            distance=_objective(eps, deltas),
            epsilon=eps,
            deltas=deltas,
            matching=Matching(
                pairs=tuple(sorted(pairs_ab)),
                unmatched_a=unmatched_piv if self.pivot_is_a else (),
                unmatched_b=() if self.pivot_is_a else unmatched_piv,
            ),
            relabeling={lb: la for la, lb in pairs_ab},
            trimmed=frozenset(trimmed),
            wall_time=perf_counter() - self.start,
            assigned_labels=dict(assigned or {}),
            unified=unified,
        )


# ---------------------------------------------------------------------------
# the estimators


def full_agreement_distance(a: LabeledMergeTree, b: LabeledMergeTree) -> MethodResult:
    """Entrywise max difference of the induced matrices over the shared labels."""
    p = _Pair(a, b)
    if p.info.case is not Agreement.FULL:
        raise errors.NotFullAgreement(
            f"leaf label sets differ ({p.info.case.value})"
        )
    return p.result(p.induced({}))


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
    if p.info.case is Agreement.FULL:
        return p.result(p.induced({}))
    _check_leaves_for_disagreement(p.a, p.b, p.info)
    piv_leaf_labels = p.piv.leaf_labels()
    s = build_s_matrix(p.piv, p.piv_unknown, piv_leaf_labels)
    trimmed = select_trim(s, len(p.piv_unknown) - len(p.oth_unknown))
    trimmed_set = set(trimmed)
    survivors = tuple(l for l in p.piv_unknown if l not in trimmed_set)
    pairs_ab, _ = p.match(survivors)
    induced = p.induced(p.matched(pairs_ab))
    deltas = _delta_map(p.piv, trimmed, piv_leaf_labels)
    return p.result(induced, pairs_ab, trimmed, deltas, trimmed=trimmed)


def _mmb(p: _Pair) -> MethodResult:
    if p.info.case is Agreement.FULL:
        return p.result(p.induced({}))
    _check_leaves_for_disagreement(p.a, p.b, p.info)
    pairs_ab, unmatched = p.match(p.piv_unknown)
    induced = p.induced(p.matched(pairs_ab))
    deltas = _delta_map(p.piv, unmatched, p.piv.leaf_labels())
    return p.result(induced, pairs_ab, unmatched, deltas)


def _greedy(p: _Pair) -> MethodResult:
    if p.info.case is Agreement.FULL:
        return p.result(p.induced({}))
    if p.info.case is Agreement.DISAGREEMENT:
        raise errors.DisagreementUnsupported(
            "baseline needs embedding coordinates when no labels are shared"
        )
    pairs_ab, unmatched = p.match(p.piv_unknown)
    extra = p.matched(pairs_ab)
    piv, oth = p.piv, p.oth
    grants: dict[int, int] = {}
    if unmatched:
        # newly known = original known plus matched labels, by unified name
        labels, cols = p.columns(extra)
        newly = np.argsort(np.asarray(labels, dtype=np.int64))
        piv_nk, oth_nk = (c[newly] for c in (cols if p.pivot_is_a else cols[::-1]))
        # candidate receivers: leaves of the smaller tree, by smallest label
        cand = sorted(oth.tree.leaves, key=lambda v: oth.labels.labels_of(v)[0])
        cand_v = np.asarray(cand, dtype=np.int64)
        ds = oth.tree.path_distance_many(cand_v[:, None], oth_nk[None, :])
        um_v = piv.vertices_for(unmatched)
        dmat = piv.tree.path_distance_many(um_v[:, None], piv_nk[None, :])
        closest = np.argmin(_row_gaps(dmat, ds), axis=1)
        for label, v, c in zip(unmatched, um_v, closest):
            receiver = cand[int(c)]
            grants[label] = oth.labels.labels_of(receiver)[0]
            extra[label] = (int(v), receiver) if p.pivot_is_a else (receiver, int(v))
    return p.result(p.induced(extra), pairs_ab, unmatched, assigned=grants)


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
    """
    p = _Pair(a, b)
    if p.info.case is Agreement.FULL:
        return p.induced({})[0]
    eps = p.induced(p.matched(pairs))[0]
    return _objective(eps, _delta_map(p.piv, removed, p.piv.leaf_labels()))


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


def oracle_min_objective(
    a: LabeledMergeTree,
    b: LabeledMergeTree,
    *,
    max_unknown_total: int = 8,
) -> float:
    """Exhaustive minimum of the shared objective on small instances.

    Enumerates every trim subset of the required size and every bijection
    between the surviving unknown leaves, scoring each configuration with
    naive parent-walk primitives (independent of the vectorized code paths).
    Raises TooLarge beyond ``max_unknown_total`` combined unknown leaves.
    """
    info = classify_agreement(a, b)
    total = info.n_unknown_a + info.n_unknown_b
    if total > max_unknown_total:
        raise errors.TooLarge(
            f"{total} combined unknown leaves exceeds the bound {max_unknown_total}"
        )
    _check_leaves_for_disagreement(a, b, info)

    pa = [int(x) for x in a.tree.parents]
    pb = [int(x) for x in b.tree.parents]
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

    if info.case is Agreement.FULL:
        return eps_of(())

    a_is_pivot = info.n_unknown_a >= info.n_unknown_b
    piv = a if a_is_pivot else b
    piv_par = pa if a_is_pivot else pb
    piv_s = sa if a_is_pivot else sb
    piv_unknown = info.unknown_a if a_is_pivot else info.unknown_b
    oth_unknown = info.unknown_b if a_is_pivot else info.unknown_a
    piv_leaf_labels = piv.leaf_labels()
    k = len(piv_unknown) - len(oth_unknown)

    def delta_of(removed: tuple[int, ...]) -> float:
        worst = 0.0
        removed_set = set(removed)
        for r in removed:
            vr = piv.labels.vertex_of(r)
            best = None
            for l in piv_leaf_labels:
                if l in removed_set:
                    continue
                vl = piv.labels.vertex_of(l)
                h = float(piv_s[_naive_lca(piv_par, vr, vl)] - piv_s[vr])
                best = h if best is None else min(best, h)
            worst = max(worst, 0.0 if best is None else best)
        return worst

    best = np.inf
    for removed in itertools.combinations(piv_unknown, k):
        removed_set = set(removed)
        survivors = [l for l in piv_unknown if l not in removed_set]
        dmax = delta_of(removed)
        for perm in itertools.permutations(oth_unknown):
            pairs_po = tuple(zip(survivors, perm))
            pairs_ab = pairs_po if a_is_pivot else tuple(
                (o, p) for p, o in pairs_po
            )
            value = max(0.5 * dmax, eps_of(pairs_ab))
            if value < best:
                best = value
    return float(best)
