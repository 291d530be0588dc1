"""Merge tree data model and topological primitives.

A merge tree is a rooted tree with one scalar value per vertex, strictly
decreasing from the root towards the leaves.  The tree metric is induced by
scalar differences along edges, so the distance between two vertices is

    d(u, v) = 2 * scalar(lca(u, v)) - scalar(u) - scalar(v).

Labels are integers in 1..2**63 - 1 (they go through int64 arrays) attached
to vertices; a lookup reads a label by the same rule, so 2.0 or "1" is none
(UnknownLabel).  Every leaf must carry at least one label; a vertex may
carry several (the label map need not be injective).  A ``LabelTable``
keeps its labels in ascending order, and the label tuples derived from it
(leaf labels, the known and unknown splits) come out in that order without
a second sort; callers rely on it.  The square *induced matrix* over a list
of labels holds the scalar of the lowest common ancestor of each label
pair, with the vertex's own scalar on the diagonal.

All types here are immutable after construction and all operations are pure,
so values can be shared freely across worker processes.  Every tree, even an
unpickled or scaled one, comes from a constructor that checks its invariants.

Every LCA query is answered from one per-tree *leaf table*: the L x L
matrix of LCA vertex ids over the tree's L childless vertices, i.e. the
vertex behind each entry of the tree's cophenetic matrix.  The first LCA
query builds it (construction only checks the tree, so loading or
generating a tree never does), in one post-order pass: the leaves of
every subtree form a contiguous run in DFS order, so each internal vertex
fills the blocks between its children's runs, exactly L^2 writes.  Cells
use the smallest unsigned dtype that holds a vertex id: one byte up to 256
vertices, two up to 65,536, four above.  A query touching an internal
vertex reads the table at one leaf below each side and keeps the one of
that LCA and the two query vertices with the largest scalar (they lie on
one root path, where scalars fall strictly).  Blocks over leaves alone
skip those checks and are read here alone: ``leaf_rows`` checks the
vertices and resolves their table rows once, ``leaf_scalars`` gives the
LCA scalars of a rows x columns block, ``leaf_scalar_pairs`` those of
paired rows, and ``leaf_distances`` a block's path distances, each row's
own vertex being its diagonal cell.  ``_legs`` sums every path distance,
of a block or of ``path_distance_many``, so the two agree bit for bit.
There is no size cutoff, and the table stays cached on its tree, so a
process holds one per tree it has queried: 34 MB a tree at L = 4096.
Pickling drops the cache; a scaled copy shares it and reads its own
scalars.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import errors

__all__ = [
    "MergeTree",
    "LabelTable",
    "LabeledMergeTree",
    "LabeledMatrix",
    "Agreement",
    "AgreementInfo",
    "induced_matrix",
    "inf_norm_diff",
    "classify_agreement",
]


def _real_array(values) -> np.ndarray:
    """``values`` as a float64 array, the one conversion of every array of
    numbers taken in (tree scalars, matrix cells, assignment costs).  Raises
    TypeError on a str or bytes cell, which numpy would parse, or on a
    complex one, and TypeError or ValueError on any other non-number or on
    ragged rows; each caller names its own error type."""
    a = np.asarray(values)
    kind = a.dtype.kind
    if kind not in "biufO" or (kind == "O" and any(isinstance(x, (str, bytes)) for x in a.flat)):
        raise TypeError("cells must be numbers")
    return a.astype(np.float64, copy=False)


def _build_leaf_table(tree: "MergeTree") -> tuple[np.ndarray, ...]:
    """(pos, lo, table): the table's rows are the childless vertices in DFS
    order and table[i, j] is the LCA of rows i and j; pos maps a vertex to
    its row (-1 off those rows) and lo[v] is the first row below v."""
    n = tree.n_vertices
    children = tree._children
    n_rows = sum(1 for kids in children if not kids)
    table = np.empty((n_rows, n_rows), dtype=np.min_scalar_type(n - 1))
    rows: list[int] = []  # childless vertices in DFS order
    lo = [0] * n  # the rows below v are lo[v]:hi[v]
    hi = [0] * n
    stack: list[tuple[int, bool]] = [(tree.root, False)]
    while stack:
        v, done = stack.pop()
        kids = children[v]
        if not kids:
            lo[v] = len(rows)
            rows.append(v)
            hi[v] = len(rows)
        elif not done:
            stack.append((v, True))
            for c in reversed(kids):
                stack.append((c, False))
        else:
            lo[v] = lo[kids[0]]
            hi[v] = hi[kids[-1]]
            # earlier siblings' leaves are the rows lo[v]:lo[c]
            for c in kids[1:]:
                table[lo[c] : hi[c], lo[v] : lo[c]] = v
                table[lo[v] : lo[c], lo[c] : hi[c]] = v
    np.fill_diagonal(table, rows)
    pos = np.full(n, -1, dtype=np.int64)
    pos[rows] = np.arange(n_rows)
    return pos, np.asarray(lo), table


class MergeTree:
    """Rooted tree with a scalar per vertex, decreasing from root to leaves.

    Construction derives the structure (children lists, root, leaves) and
    ends with ``_validate``, so a tree that exists is valid.  Vertex ids
    are dense 0..V-1 and stable for the lifetime of the tree; like labels,
    they are integers by ``operator.index``, so 0.5 is no vertex id.
    """

    __slots__ = ("_scalars", "_parents", "_children", "_root", "_leaves", "_leaf_lca", "_extent")

    def __init__(self, scalars: Sequence[float], parents: Sequence[int | None]):
        try:
            s = _real_array(scalars)
        except (TypeError, ValueError):
            raise errors.ValidationError("scalars must be real numbers") from None
        if s.ndim != 1 or len(s) == 0:
            raise errors.ValidationError("a tree needs at least one vertex")
        try:
            plist = [-1 if q is None else operator.index(q) for q in parents]
        except TypeError:
            raise errors.InvalidVertex("parent ids must be integers or None") from None
        p = np.asarray(plist, dtype=np.int64)
        if len(p) != len(s):
            raise errors.ValidationError("scalars and parents differ in length")
        if np.any((p < -1) | (p >= len(s))):
            raise errors.InvalidVertex("parent index out of range")
        self._scalars = s
        self._scalars.setflags(write=False)
        self._parents = p
        self._parents.setflags(write=False)
        roots = np.flatnonzero(p == -1)
        if len(roots) == 0:
            raise errors.CycleDetected("no root: every vertex has a parent")
        if len(roots) > 1:
            raise errors.MultipleRoots(f"vertices {roots.tolist()} all lack a parent")
        self._root = int(roots[0])
        children: list[list[int]] = [[] for _ in range(len(s))]
        for v, q in enumerate(plist):
            if q >= 0:
                children[q].append(v)
        self._children = tuple(map(tuple, children))
        self._leaves = tuple(
            [v for v, kids in enumerate(children) if not kids and v != self._root]
        )
        self._leaf_lca: tuple[np.ndarray, ...] | None = None
        self._extent: tuple[float, float] | None = None
        self._validate()

    # -- structure ---------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self._scalars)

    @property
    def scalars(self) -> np.ndarray:
        return self._scalars

    @property
    def parents(self) -> np.ndarray:
        return self._parents

    @property
    def root(self) -> int:
        return self._root

    @property
    def extent(self) -> tuple[float, float]:
        """(half span, largest |scalar|): s[root]/2 - min(s)/2, which is
        finite for any finite scalars, and max(s[root], -min(s)); taken once."""
        if self._extent is None:
            top, bottom = float(self._scalars[self._root]), float(self._scalars.min())
            self._extent = (top / 2 - bottom / 2, max(top, -bottom))
        return self._extent

    @property
    def leaves(self) -> tuple[int, ...]:
        """Childless non-root vertices (a single-vertex tree has none)."""
        return self._leaves

    @property
    def all_children(self) -> tuple[tuple[int, ...], ...]:
        return self._children

    def children(self, v: int) -> tuple[int, ...]:
        return self._children[self._check_vertex(v)]

    def parent(self, v: int) -> int | None:
        p = int(self._parents[self._check_vertex(v)])
        return None if p < 0 else p

    def is_leaf(self, v: int) -> bool:
        v = self._check_vertex(v)
        return v != self._root and not self._children[v]

    def _check_vertex(self, v: int) -> int:
        try:
            v = operator.index(v)
        except TypeError:
            raise errors.InvalidVertex(f"vertex {v!r} is not an integer") from None
        if not 0 <= v < self.n_vertices:
            raise errors.InvalidVertex(f"vertex {v} not in 0..{self.n_vertices - 1}")
        return v

    def _validate(self) -> None:
        """Check semantic validity; raises the first violation found.

        Raises CycleDetected or MultipleRoots (partly earlier in ``__init__``),
        NonDecreasingScalar on a child at or above its parent, and a plain
        ValidationError on non-finite scalars.  Interior vertices with a
        single child are valid (they change no LCA scalar or distance);
        the file loader splices them out as a canonicalization.
        """
        if not np.all(np.isfinite(self._scalars)):
            bad = int(np.flatnonzero(~np.isfinite(self._scalars))[0])
            raise errors.ValidationError(f"vertex {bad} has a non-finite scalar")
        # only vertices the root does not reach can lie on a cycle
        reached = [self._root]
        for x in reached:
            reached.extend(self._children[x])
        if len(reached) < self.n_vertices:
            missing = min(set(range(self.n_vertices)).difference(reached))
            raise errors.CycleDetected(f"vertex {missing} is not reachable from the root")
        nonroot = np.flatnonzero(self._parents >= 0)
        bad = nonroot[
            self._scalars[nonroot] >= self._scalars[self._parents[nonroot]]
        ]
        if len(bad):
            v = int(bad[0])
            raise errors.NonDecreasingScalar(
                f"vertex {v} (scalar {self._scalars[v]}) is not strictly below "
                f"its parent {int(self._parents[v])} "
                f"(scalar {self._scalars[self._parents[v]]})"
            )

    # -- topology queries ----------------------------------------------------

    def _leaf_table(self) -> tuple[np.ndarray, ...]:
        if self._leaf_lca is None:
            self._leaf_lca = _build_leaf_table(self)
        return self._leaf_lca

    def lca(self, u: int, v: int) -> int:
        """Deepest vertex that is an ancestor-or-self of both u and v."""
        return int(self.lca_many([self._check_vertex(u)], [self._check_vertex(v)])[0])

    def lca_many(self, us, vs) -> np.ndarray:
        """Vectorized LCA over broadcastable arrays of vertex ids."""
        try:
            us, vs = np.asarray(us), np.asarray(vs)
            shape = np.broadcast_shapes(us.shape, vs.shape)
        except ValueError:  # ragged, or shapes that do not broadcast
            raise errors.InvalidVertex("vertex ids must form broadcastable arrays") from None
        if 0 in shape:
            return np.zeros(shape, dtype=np.int64)
        self._check_ids(us, vs)
        pos, lo, table = self._leaf_table()
        p = pos[us]
        q = pos[vs]
        if p.min() >= 0 and q.min() >= 0:  # leaves only: read the table
            return table[p, q].astype(np.int64)
        # w joins a leaf below u and one below v: it lies strictly above both
        # unless one is an ancestor of the other, and then that one lies above
        # w.  All three lie on one root path, so the largest scalar is the LCA
        w = table[lo[us], lo[vs]].astype(np.int64)
        w = np.where(self._scalars[us] > self._scalars[w], us, w)
        return np.where(self._scalars[vs] > self._scalars[w], vs, w)

    def _check_ids(self, *arrays: np.ndarray) -> None:
        """Raise InvalidVertex unless every (non-empty) array holds vertex ids."""
        if any(a.dtype.kind not in "iu" for a in arrays):
            raise errors.InvalidVertex("vertex ids must be integers")
        if min(a.min() for a in arrays) < 0 or max(a.max() for a in arrays) >= self.n_vertices:
            raise errors.InvalidVertex(f"vertex ids must lie in 0..{self.n_vertices - 1}")

    def leaf_rows(self, vs) -> np.ndarray:
        """The leaf-table rows of the childless vertices ``vs``, checked once
        here so that the ``leaf_*`` reads below gather without checks."""
        try:
            vs = np.asarray(vs)
        except ValueError:
            raise errors.InvalidVertex("vertex ids must form an array, not a ragged list") from None
        if vs.size == 0:
            return np.zeros(vs.shape, dtype=np.int64)
        self._check_ids(vs)
        rows = self._leaf_table()[0][vs]
        if rows.min() < 0:
            bad = int(vs.ravel()[np.argmin(rows.ravel())])
            raise errors.InvalidVertex(f"vertex {bad} is not childless")
        return rows

    def leaf_scalars(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """LCA scalars of leaf-table rows p (one per row) and q (one per
        column), both from :meth:`leaf_rows`: two takes on the table, one on
        the scalars."""
        return self._scalars.take(self._leaf_table()[2].take(p, axis=0).take(q, axis=1))

    def leaf_scalar_pairs(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """:meth:`leaf_scalars` of p[i] and q[i] alone, for each i: one take each."""
        return self._scalars.take(self._leaf_table()[2][p, q])

    def leaf_distances(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Path distances between leaf-table rows p (one per row) and q (one
        per column), bit for bit :meth:`path_distance_many`'s: the
        :meth:`leaf_scalars` block and each row's own scalar, whose vertex
        is the row's diagonal cell."""
        own = self._leaf_table()[2].diagonal()
        s = self._scalars
        return self._legs(self.leaf_scalars(p, q), s.take(own.take(p))[:, None], s.take(own.take(q)))

    def scaled(self, k: int) -> MergeTree:
        """This tree with every scalar times 2**k, built by the constructor
        and adopting this tree's leaf table (which holds vertex ids only).
        Exact unless a scalar underflows; NonDecreasingScalar if that merges
        a child into its parent."""
        try:
            t = MergeTree(np.ldexp(self._scalars, k), self._parents.tolist())
        except errors.NonDecreasingScalar as exc:
            raise errors.NonDecreasingScalar(f"times 2**{k}, {exc}") from None
        t._leaf_lca = self._leaf_table()
        return t

    def path_distance(self, u: int, v: int) -> float:
        """Length of the tree path between u and v; NonFiniteCost past float64."""
        return float(self.path_distance_many([self._check_vertex(u)], [self._check_vertex(v)])[0])

    def path_distance_many(self, us, vs) -> np.ndarray:
        s = self._scalars
        sl = s[self.lca_many(us, vs)]  # which checks the ids
        if sl.size == 0:
            return sl
        return self._legs(sl, s[np.asarray(us)], s[np.asarray(vs)])

    def _legs(self, sl: np.ndarray, su: np.ndarray, sv: np.ndarray) -> np.ndarray:
        """Path lengths from LCA scalars sl to end scalars su and sv, the one
        rule for every path distance: summed as two non-negative legs, and
        addition commutes, so swapping the ends gives the same bits;
        NonFiniteCost past float64."""
        with np.errstate(over="ignore"):
            d = (sl - su) + (sl - sv)
        if self.extent[0] >= 2.0**1020 and not np.isfinite(d).all():  # else d < 2**1023
            raise errors.NonFiniteCost("a path distance is past float64")
        return d

    # pickling: drop the cached leaf table (cheap to rebuild, shrinks payloads)
    def __getstate__(self):
        return (np.asarray(self._scalars), np.asarray(self._parents))

    def __setstate__(self, state):
        scalars, parents = state
        MergeTree.__init__(self, scalars, parents.tolist())  # -1 marks the root

    def __repr__(self) -> str:
        return f"MergeTree(V={self.n_vertices}, leaves={len(self._leaves)})"


class LabelTable:
    """Bidirectional mapping between labels and vertices.

    This is the one place that says what a label is: an integer (by
    ``operator.index``) in 1..2**63 - 1, at construction and on every lookup
    (:meth:`vertex_of`, :meth:`vertices_of`), which refuses anything else
    with UnknownLabel.  The forward map label -> vertex is single valued;
    the inverse is a multimap since one vertex may carry several labels.
    The table keeps its labels in ascending order: ``items()``,
    ``by_vertex`` and each ``labels_of(v)`` yield them so, and callers rely
    on that instead of sorting again.
    """

    __slots__ = ("_label_to_vertex", "_vertex_to_labels")

    def __init__(self, label_to_vertex: Mapping[int, int]):
        fwd: dict[int, int] = {}
        for label, vertex in label_to_vertex.items():
            try:
                label, vertex = operator.index(label), operator.index(vertex)
            except TypeError:
                pair = f"label {label!r} on vertex {vertex!r}"
                raise errors.ValidationError(f"{pair}: not integers") from None
            if not 0 < label < 1 << 63:  # labels go through int64 arrays
                raise errors.ValidationError(f"label {label} is not an integer in 1..2**63 - 1")
            if label in fwd:
                raise errors.DuplicateLabel(f"label {label} mapped to two vertices")
            fwd[label] = vertex
        self._label_to_vertex = {label: fwd[label] for label in sorted(fwd)}
        inv: dict[int, list[int]] = {}
        for label, vertex in self._label_to_vertex.items():
            inv.setdefault(vertex, []).append(label)
        self._vertex_to_labels = {v: tuple(ls) for v, ls in inv.items()}

    def vertex_of(self, label: int) -> int:
        try:
            return self._label_to_vertex[operator.index(label)]
        except (TypeError, KeyError):
            raise errors.UnknownLabel(f"label {label!r} is not assigned") from None

    def vertices_of(self, labels: Sequence[int]) -> np.ndarray:
        """Each label's vertex, as int64, by operator.index and the table with
        no Python frame per label; UnknownLabel names the first bad label."""
        try:
            found = map(self._label_to_vertex.__getitem__, map(operator.index, labels))
            return np.fromiter(found, dtype=np.int64, count=len(labels))
        except (TypeError, KeyError):
            for label in labels:  # the first bad label raises
                self.vertex_of(label)
            raise

    def labels_of(self, vertex: int) -> tuple[int, ...]:
        return self._vertex_to_labels.get(vertex, ())

    @property
    def by_vertex(self) -> Mapping[int, tuple[int, ...]]:
        """``labels_of(v)`` of every labeled vertex v; do not modify."""
        return self._vertex_to_labels

    def items(self) -> Iterable[tuple[int, int]]:
        """(label, vertex) pairs in ascending label order."""
        return self._label_to_vertex.items()

    def __len__(self) -> int:
        return len(self._label_to_vertex)


class LabeledMergeTree:
    """A merge tree together with its label table.  Treated as immutable.

    Its *leaf index*, found on first use and kept, is what every pair reads
    of the tree's leaves: the leaf labels in ascending order, the same
    labels as a set, and each one's vertex (a read-only int64 array, a
    vertex repeated for a leaf carrying several labels).  Pickling drops
    it, as ``MergeTree`` drops its leaf table.
    """

    __slots__ = ("tree", "labels", "_leaf_index")

    def __init__(self, tree: MergeTree, labels: LabelTable):
        self.tree = tree
        self.labels = labels
        self._leaf_index = None
        self._validate()

    def _validate(self) -> None:
        """Raise InvalidVertex on a label off the tree, MissingLeafLabel on a bare leaf."""
        n = self.tree.n_vertices
        for label, v in self.labels.items():  # the first bad one in label order
            if not 0 <= v < n:
                raise errors.InvalidVertex(f"label {label} points at missing vertex {v}")
        labeled = self.labels.by_vertex
        for leaf in self.tree.leaves:
            if leaf not in labeled:
                raise errors.MissingLeafLabel(f"leaf {leaf} carries no label")

    def leaf_labels(self) -> tuple[int, ...]:
        """Labels sitting on leaves of the tree, in ascending order."""
        return self.leaf_index()[0]

    def leaf_index(self) -> tuple[tuple[int, ...], frozenset[int], np.ndarray]:
        """(leaf labels in ascending order, the same as a set, their
        vertices), found once, as neither the tree nor its labels change."""
        if self._leaf_index is None:
            leafset = set(self.tree.leaves)
            on_leaves = [(l, v) for l, v in self.labels.items() if v in leafset]
            labels = tuple(l for l, _ in on_leaves)
            verts = np.fromiter((v for _, v in on_leaves), dtype=np.int64, count=len(on_leaves))
            verts.setflags(write=False)
            self._leaf_index = labels, frozenset(labels), verts
        return self._leaf_index

    # pickling: drop the cached leaf index, as MergeTree drops its table
    def __getstate__(self):
        return self.tree, self.labels

    def __setstate__(self, state):
        LabeledMergeTree.__init__(self, *state)

    def __repr__(self) -> str:
        return f"LabeledMergeTree({self.tree!r}, labels={len(self.labels)})"


def _float_matrix(entries, shape: tuple[int, int]) -> np.ndarray:
    """``entries`` as a float64 array: LabelMismatch unless they form a
    matrix of ``shape``, ValidationError if its cells are not all numbers."""
    try:
        e = _real_array(entries)
    except (TypeError, ValueError):
        try:  # ragged rows give an object array of another shape, or none
            formed = np.asarray(entries, dtype=object).shape == shape
        except ValueError:
            formed = False
        if formed:
            raise errors.ValidationError("matrix cells are not all numbers") from None
        raise errors.LabelMismatch(f"entries do not form a {shape} matrix") from None
    if e.shape != shape:
        raise errors.LabelMismatch(f"entry shape {e.shape} does not match {shape}")
    return e


@dataclass(frozen=True)
class LabeledMatrix:
    """Dense real matrix whose rows and columns are indexed by label lists."""

    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        for labels, what in ((self.row_labels, "row"), (self.col_labels, "column")):
            try:
                distinct = len(set(labels)) == len(labels)
            except TypeError:  # an unhashable label
                raise errors.ValidationError(f"a {what} label is unhashable") from None
            if not distinct:
                raise errors.DuplicateLabel(f"duplicate {what} label")
        e = _float_matrix(self.entries, (len(self.row_labels), len(self.col_labels)))
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


class Agreement(Enum):
    FULL = "full"
    PARTIAL = "partial"
    DISAGREEMENT = "disagreement"


@dataclass(frozen=True)
class AgreementInfo:
    """Shared and per-tree leaf label sets for a comparison pair."""

    case: Agreement
    known: tuple[int, ...]
    unknown_a: tuple[int, ...]
    unknown_b: tuple[int, ...]


def classify_agreement(a: LabeledMergeTree, b: LabeledMergeTree) -> AgreementInfo:
    """Split the two trees' leaf labels into known (shared) and unknown sets,
    each in ascending order: filters keep the order of the leaf labels, and
    test each label against the other tree's leaf index set."""
    (la, in_a, _), (lb, in_b, _) = a.leaf_index(), b.leaf_index()
    if in_a.isdisjoint(in_b):  # nothing shared: every leaf label is unknown
        case = Agreement.DISAGREEMENT if la or lb else Agreement.FULL
        return AgreementInfo(case, (), la, lb)
    unknown_a = tuple(itertools.filterfalse(in_b.__contains__, la))
    unknown_b = tuple(itertools.filterfalse(in_a.__contains__, lb))
    known = tuple(filter(in_b.__contains__, la))
    case = Agreement.PARTIAL if unknown_a or unknown_b else Agreement.FULL
    return AgreementInfo(case, known, unknown_a, unknown_b)


def induced_matrix(lt: LabeledMergeTree, labels: Sequence[int]) -> LabeledMatrix:
    """Square symmetric matrix of LCA scalars over the given label list.

    Entry (i, j) is the scalar of lca(vertex(label_i), vertex(label_j));
    the diagonal holds the labeled vertex's own scalar.
    """
    labels = tuple(labels)
    verts = lt.labels.vertices_of(labels)
    labels = tuple(map(operator.index, labels))  # as Python ints
    if len(set(labels)) != len(labels):
        raise errors.DuplicateLabel("label subset contains duplicates")
    lcas = lt.tree.lca_many(verts[:, None], verts[None, :])
    return LabeledMatrix(labels, labels, lt.tree.scalars[lcas])


def inf_norm_diff(a: LabeledMatrix, b: LabeledMatrix) -> float:
    """Maximum absolute entrywise difference, aligned by label.

    Diagonal entries participate.  Raises LabelMismatch unless both matrices
    index the same row and column label sets (any order), and NonFiniteCost
    when the maximum is past float64.
    """
    same = a.row_labels == b.row_labels and a.col_labels == b.col_labels
    if not same and (
        set(a.row_labels) != set(b.row_labels) or set(a.col_labels) != set(b.col_labels)
    ):
        raise errors.LabelMismatch("matrices indexed by different label sets")
    if a.entries.size == 0:
        return 0.0
    if same:
        bb = b.entries
    else:
        ri = [b.row_labels.index(l) for l in a.row_labels]
        ci = [b.col_labels.index(l) for l in a.col_labels]
        bb = b.entries[np.ix_(ri, ci)]
    # abs in place: one matrix-sized temporary, not two
    with np.errstate(over="ignore"):
        diff = a.entries - bb
    worst = float(np.max(np.abs(diff, out=diff)))
    if np.isinf(worst):
        raise errors.NonFiniteCost("an entry difference is past float64")
    return worst
