"""File formats: labeled merge trees, distance matrices, heatmaps.

mtree text format (UTF-8, LF line endings)::

    mtree 1
    # comment
    v <id> <scalar> [<label> ...]
    e <child-id> <parent-id>

Vertex ids are arbitrary non-negative integers, remapped densely on load.
Labels are positive integers; several labels may sit on one vertex.  The
special label -1 marks an unknown-labeled leaf in third-party inputs and is
rewritten on load to fresh unique labels (see ``parse_mtree``).  Unlabeled
interior vertices of degree two are collapsed on load; a labeled one is
rejected, since collapsing it would silently drop a labeled vertex.

Writing is canonical: children are ordered by a recursive structural key
(scalar, labels, child keys), vertices are emitted in breadth-first order
under that ordering, and scalars are printed with 17 significant digits, so
two structurally equal trees serialize identically and round trips preserve
every scalar bit.

Distance matrices go to RFC-4180-style CSV ("." decimal separator, no locale
dependence) with member identifiers as header row and first column.
Heatmaps are binary portable pixmaps (P6), one pixel per matrix cell:
grayscale maps the minimum value to white and the maximum to black, and the
three-color comparison variant paints cells blue where the first method's
value is smaller, yellow where larger, gray where equal; NaN cells are red.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import errors
from .core import LabelTable, LabeledMergeTree, MergeTree

__all__ = [
    "parse_mtree",
    "write_mtree",
    "read_mtree_file",
    "write_mtree_file",
    "DistanceMatrix",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_heatmap",
    "write_comparison_heatmap",
]

_HEADER = "mtree 1"


def parse_mtree(text: str, *, unknown_label_base: int | None = None) -> LabeledMergeTree:
    """Parse and validate an mtree document.

    ``unknown_label_base``: first fresh label handed to ``-1`` placeholders.
    Defaults to one past the largest label in the file; callers comparing
    several files should pass disjoint bases so rewritten unknowns never
    collide across trees.
    """
    scalars: dict[int, float] = {}
    raw_labels: dict[int, list[int]] = {}
    edges: list[tuple[int, int, int]] = []  # (child, parent, line number)
    saw_header = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if not saw_header:
            if parts[0] != "mtree" or len(parts) != 2 or parts[1] != "1":
                raise errors.MtreeSyntaxError(line_no, "expected header 'mtree 1'")
            saw_header = True
            continue
        if parts[0] == "v":
            if len(parts) < 3:
                raise errors.MtreeSyntaxError(line_no, "vertex line needs id and scalar")
            try:
                vid = int(parts[1])
                scalar = float(parts[2])
            except ValueError:
                raise errors.MtreeSyntaxError(line_no, "bad vertex id or scalar") from None
            if vid < 0:
                raise errors.MtreeSyntaxError(line_no, "vertex ids are non-negative")
            if vid in scalars:
                raise errors.MtreeSyntaxError(line_no, f"vertex {vid} defined twice")
            scalars[vid] = scalar
            labels = []
            for tok in parts[3:]:
                try:
                    label = int(tok)
                except ValueError:
                    raise errors.MtreeSyntaxError(line_no, f"bad label {tok!r}") from None
                if label == 0 or label < -1:
                    raise errors.MtreeSyntaxError(
                        line_no, f"label {label} (use positive integers or -1)"
                    )
                if label != -1 and label in labels:
                    raise errors.DuplicateLabel(
                        f"line {line_no}: label {label} repeated on one vertex line"
                    )
                labels.append(label)
            raw_labels[vid] = labels
        elif parts[0] == "e":
            if len(parts) != 3:
                raise errors.MtreeSyntaxError(line_no, "edge line is 'e <child> <parent>'")
            try:
                child, parent = int(parts[1]), int(parts[2])
            except ValueError:
                raise errors.MtreeSyntaxError(line_no, "bad edge ids") from None
            edges.append((child, parent, line_no))
        else:
            raise errors.MtreeSyntaxError(line_no, f"unknown record {parts[0]!r}")
    if not saw_header:
        raise errors.MtreeSyntaxError(1, "empty document")
    if not scalars:
        raise errors.MtreeSyntaxError(1, "no vertices")

    for child, parent, _ in edges:
        for vid in (child, parent):
            if vid not in scalars:
                raise errors.DisconnectedVertex(
                    f"edge ({child}, {parent}) references undefined vertex {vid}"
                )
    parent_of: dict[int, int] = {}
    for child, parent, line_no in edges:
        if child in parent_of:
            raise errors.MtreeSyntaxError(line_no, f"vertex {child} has two parents")
        parent_of[child] = parent

    ids = sorted(scalars)
    dense = {vid: i for i, vid in enumerate(ids)}
    tree = MergeTree(
        [scalars[vid] for vid in ids],
        [dense[parent_of[vid]] if vid in parent_of else None for vid in ids],
    )
    label_map: dict[int, int] = {}
    fresh = unknown_label_base
    if fresh is None:
        positives = [l for ls in raw_labels.values() for l in ls if l > 0]
        fresh = (max(positives) + 1) if positives else 1
    for vid in ids:
        for label in raw_labels.get(vid, ()):
            if label == -1:
                label = fresh
                fresh += 1
            if label in label_map:
                raise errors.DuplicateLabel(f"label {label} on two vertices")
            label_map[label] = dense[vid]

    # validate before splicing: a splice keeps a valid tree valid, but it
    # would drop a self-loop, a detached cycle or a one-child vertex above
    # its parent without a word
    tree.validate()
    tree, label_map = _collapse_unary(tree, label_map)
    lt = LabeledMergeTree(tree, LabelTable(label_map))
    lt.validate_labels()
    return lt


def _collapse_unary(
    tree: MergeTree, label_map: dict[int, int]
) -> tuple[MergeTree, dict[int, int]]:
    """Splice out unlabeled non-root vertices with exactly one child."""
    labeled = set(label_map.values())
    parents = [None if p < 0 else int(p) for p in tree.parents]
    dead: set[int] = set()
    for v in range(tree.n_vertices):
        if v == tree.root or len(tree.children(v)) != 1:
            continue
        if v in labeled:
            raise errors.ValidationError(
                f"vertex {v} has one child but carries a label; cannot collapse"
            )
        dead.add(v)
    if not dead:
        return tree, label_map

    def kept_parent(v: int) -> int | None:
        # chains of spliced vertices reparent to the nearest kept ancestor
        p = parents[v]
        while p is not None and p in dead:
            p = parents[p]
        return p

    keep = [v for v in range(tree.n_vertices) if v not in dead]
    remap = {v: i for i, v in enumerate(keep)}
    new_tree = MergeTree(
        [float(tree.scalars[v]) for v in keep],
        [remap[kept_parent(v)] if kept_parent(v) is not None else None for v in keep],
    )
    return new_tree, {l: remap[v] for l, v in label_map.items()}


def _canonical_order(lt: LabeledMergeTree) -> list[int]:
    """Vertices in BFS order with children sorted by a structural key."""
    tree = lt.tree
    bfs = [tree.root]
    for v in bfs:
        bfs.extend(tree.children(v))
    key: dict[int, tuple] = {}
    for v in reversed(bfs):  # children before parents: keys build bottom-up
        kids = sorted(key[c] for c in tree.children(v))
        key[v] = (float(tree.scalars[v]), lt.labels.labels_of(v), tuple(kids))
    order = [tree.root]
    for v in order:
        order.extend(sorted(tree.children(v), key=key.__getitem__))
    return order


def write_mtree(lt: LabeledMergeTree) -> str:
    """Canonical serialization; see the module docstring."""
    order = _canonical_order(lt)
    ids = {v: i for i, v in enumerate(order)}
    lines = [_HEADER]
    for v in order:
        toks = ["v", str(ids[v]), "%.17g" % float(lt.tree.scalars[v])]
        toks.extend(str(l) for l in lt.labels.labels_of(v))
        lines.append(" ".join(toks))
    for v in order:
        p = lt.tree.parent(v)
        if p is not None:
            lines.append(f"e {ids[v]} {ids[p]}")
    return "\n".join(lines) + "\n"


def read_mtree_file(path, *, unknown_label_base: int | None = None) -> LabeledMergeTree:
    return parse_mtree(
        Path(path).read_text(encoding="utf-8"), unknown_label_base=unknown_label_base
    )


def write_mtree_file(lt: LabeledMergeTree, path) -> None:
    Path(path).write_text(write_mtree(lt), encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# distance matrices


@dataclass(frozen=True)
class DistanceMatrix:
    """Square matrix of pairwise values keyed by member identifiers."""

    member_ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        n = len(self.member_ids)
        if v.shape != (n, n):
            raise errors.LabelMismatch(f"matrix shape {v.shape} for {n} members")
        object.__setattr__(self, "values", v)

    def check(self, *, zero_diagonal: bool = True, tol: float = 1e-9) -> None:
        v = self.values
        finite = np.isfinite(v)
        sym = finite & finite.T
        if np.any(np.abs(v - v.T)[sym] > tol):
            raise errors.ValidationError("matrix is not symmetric")
        if zero_diagonal and np.any(np.abs(np.diag(v)) > tol):
            raise errors.ValidationError("diagonal is not zero")


def _fmt(x: float) -> str:
    if math.isnan(x):
        return "nan"
    return repr(float(x))


def write_matrix_csv(matrix: DistanceMatrix, path) -> None:
    """Bit-stable CSV: header 'id,<members>' ('id' alone for no members);
    one row per member."""
    lines = [",".join(("id",) + matrix.member_ids)]
    for mid, row in zip(matrix.member_ids, matrix.values):
        lines.append(mid + "," + ",".join(_fmt(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_matrix_csv(path) -> DistanceMatrix:
    """Inverse of :func:`write_matrix_csv`; each row must start with the
    member id the header lists at its position and hold one number per
    member, and there is one row per member."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise errors.MtreeSyntaxError(1, "empty matrix file")
    header = lines[0].split(",")
    if header[0] != "id":
        raise errors.MtreeSyntaxError(1, "expected 'id' corner cell")
    ids = tuple(header[1:])
    rows = []
    for line_no, (mid, line) in enumerate(zip(ids, lines[1:]), start=2):
        cells = line.split(",")
        if cells[0] != mid:
            raise errors.MtreeSyntaxError(
                line_no, f"row id {cells[0]!r} where the header puts {mid!r}"
            )
        if len(cells) != len(ids) + 1:
            raise errors.MtreeSyntaxError(
                line_no, f"{len(cells) - 1} values where the header lists {len(ids)} members"
            )
        try:
            rows.append([float(x) for x in cells[1:]])
        except ValueError:
            raise errors.MtreeSyntaxError(line_no, "non-numeric matrix cell") from None
    if len(lines) != len(ids) + 1:
        raise errors.MtreeSyntaxError(
            len(rows) + 2, f"{len(lines) - 1} rows where the header lists {len(ids)} members"
        )
    return DistanceMatrix(ids, np.asarray(rows, dtype=np.float64).reshape(len(ids), len(ids)))


# ---------------------------------------------------------------------------
# portable pixmap heatmaps

_NAN_RGB = (255, 0, 0)
_BETTER_RGB = (40, 80, 220)   # first method smaller
_WORSE_RGB = (235, 200, 30)   # first method larger
_EQUAL_RGB = (128, 128, 128)


def _write_p6(pixels: np.ndarray, path) -> None:
    h, w, _ = pixels.shape
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.astype(np.uint8).tobytes())


def write_heatmap(matrix: DistanceMatrix, path) -> None:
    """Linear grayscale, minimum value white, maximum black; NaN red."""
    v = matrix.values
    finite = np.isfinite(v)
    if finite.any():
        lo = float(v[finite].min())
        hi = float(v[finite].max())
        span = hi - lo
    else:
        lo, span = 0.0, 0.0
    if span == 0.0:
        level = np.full(v.shape, 255.0)
    else:
        level = 255.0 * (1.0 - (v - lo) / span)
    level = np.where(finite, level, 0.0)
    pixels = np.repeat(level[:, :, None], 3, axis=2)
    pixels[~finite] = _NAN_RGB
    _write_p6(np.clip(pixels, 0, 255), path)


def write_comparison_heatmap(
    ours: DistanceMatrix, base: DistanceMatrix, path, *, tol: float = 1e-9
) -> None:
    """Per-cell trichotomy of two matrices over the same members."""
    if ours.member_ids != base.member_ids:
        raise errors.LabelMismatch("comparison needs identical member lists")
    a, b = ours.values, base.values
    finite = np.isfinite(a) & np.isfinite(b)
    pixels = np.empty(a.shape + (3,), dtype=np.float64)
    pixels[:] = _NAN_RGB
    equal = finite & (np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b)))
    better = finite & ~equal & (a < b)
    worse = finite & ~equal & (a > b)
    pixels[equal] = _EQUAL_RGB
    pixels[better] = _BETTER_RGB
    pixels[worse] = _WORSE_RGB
    _write_p6(pixels, path)
