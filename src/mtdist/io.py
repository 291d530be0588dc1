"""File formats: labeled merge trees, distance matrices, heatmaps.

mtree text format (UTF-8, LF line endings)::

    mtree 1
    # comment
    v <id> <scalar> [<label> ...]
    e <child-id> <parent-id>

Vertex ids are arbitrary non-negative integers, remapped densely in id order
on load; ids that are already 0..V-1, as in every written file, are kept.
Labels are positive integers below 2**63; several may sit on one vertex.  The
special label -1 marks an unknown-labeled leaf in third-party inputs and is
rewritten on load to fresh unique labels (see ``parse_mtree``).  Unlabeled
interior vertices of degree two are collapsed on load; a labeled one is
rejected, since collapsing it would silently drop a labeled vertex.

Numbers from outside (ids, scalars, labels, matrix cells, command-line and
MT_WORKERS values) are Python's ``int`` or ``float`` on ASCII without ``_``.

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

import csv
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import errors
from .core import LabelTable, LabeledMergeTree, MergeTree, _float_matrix

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

# Two distances this close (relative) tie, in comparison pixmaps and counts.
TIE_TOL = 1e-9


def _ascii_number(kind: type):
    """``kind`` for a token that is ASCII without ``_``; ValueError for any other."""

    def parse(token: str):
        if not token.isascii() or "_" in token:
            raise ValueError(f"invalid {kind.__name__} literal: {token!r}")
        return kind(token)

    return parse


def parse_mtree(text: str, *, unknown_label_base: int | None = None) -> LabeledMergeTree:
    """Parse and validate an mtree document.

    ``unknown_label_base``: first fresh label handed to ``-1`` placeholders.
    Defaults to one past the largest label in the file; callers comparing
    several files should pass disjoint bases so rewritten unknowns never
    collide across trees.
    """
    if unknown_label_base is not None:
        unknown_label_base = errors.integer(unknown_label_base, "unknown_label_base")
    plain = text.isascii() and "_" not in text  # then every token is, checked once
    to_int, to_float = (int, float) if plain else map(_ascii_number, (int, float))
    lines = enumerate(text.splitlines(), start=1)
    for line_no, line in lines:
        parts = line.split("#", 1)[0].split()
        if parts:
            if parts != ["mtree", "1"]:
                raise errors.MtreeSyntaxError(line_no, "expected header 'mtree 1'")
            break
    else:
        raise errors.MtreeSyntaxError(1, "empty document")
    scalars: dict[int, float] = {}
    raw_labels: dict[int, list[int]] = {}
    edges: list[tuple[int, int, int]] = []  # (child, parent, line number)
    for line_no, line in lines:
        if "#" in line:
            line = line.split("#", 1)[0]
        parts = line.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "v":
            if len(parts) < 3:
                raise errors.MtreeSyntaxError(line_no, "vertex line needs id and scalar")
            try:
                vid = to_int(parts[1])
                scalar = to_float(parts[2])
            except ValueError:
                raise errors.MtreeSyntaxError(line_no, "bad vertex id or scalar") from None
            if vid < 0:
                raise errors.MtreeSyntaxError(line_no, "vertex ids are non-negative")
            if vid in scalars:
                raise errors.MtreeSyntaxError(line_no, f"vertex {vid} defined twice")
            scalars[vid] = scalar
            labels = raw_labels[vid] = []
            for tok in parts[3:]:
                try:
                    label = to_int(tok)
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
        elif tag == "e":
            if len(parts) != 3:
                raise errors.MtreeSyntaxError(line_no, "edge line is 'e <child> <parent>'")
            try:
                edges.append((to_int(parts[1]), to_int(parts[2]), line_no))
            except ValueError:
                raise errors.MtreeSyntaxError(line_no, "bad edge ids") from None
        else:
            raise errors.MtreeSyntaxError(line_no, f"unknown record {tag!r}")
    if not scalars:
        raise errors.MtreeSyntaxError(1, "no vertices")

    for child, parent, _ in edges:
        if child not in scalars or parent not in scalars:
            vid = parent if child in scalars else child
            raise errors.DisconnectedVertex(
                f"edge ({child}, {parent}) references undefined vertex {vid}"
            )
    parent_of: dict[int, int] = {}
    for child, parent, line_no in edges:
        if child in parent_of:
            raise errors.MtreeSyntaxError(line_no, f"vertex {child} has two parents")
        parent_of[child] = parent

    n = len(scalars)
    if max(scalars) != n - 1:  # not 0..V-1 already: renumber in id order
        dense = {vid: i for i, vid in enumerate(sorted(scalars))}
        scalars = {dense[v]: x for v, x in scalars.items()}
        raw_labels = {dense[v]: ls for v, ls in raw_labels.items()}
        parent_of = {dense[c]: dense[p] for c, p in parent_of.items()}
    tree = MergeTree([scalars[v] for v in range(n)], [parent_of.get(v) for v in range(n)])
    label_map: dict[int, int] = {}
    fresh = unknown_label_base
    if fresh is None:
        positives = [l for ls in raw_labels.values() for l in ls if l > 0]
        fresh = (max(positives) + 1) if positives else 1
    for v in range(n):
        for label in raw_labels[v]:
            if label == -1:
                label = fresh
                fresh += 1
            if label in label_map:
                raise errors.DuplicateLabel(f"label {label} on two vertices")
            label_map[label] = v

    tree, label_map = _collapse_unary(tree, label_map)
    return LabeledMergeTree(tree, LabelTable(label_map))


def _collapse_unary(
    tree: MergeTree, label_map: dict[int, int]
) -> tuple[MergeTree, dict[int, int]]:
    """Splice out unlabeled non-root vertices with exactly one child."""
    dead = {v for v, kids in enumerate(tree.all_children) if len(kids) == 1} - {tree.root}
    if not dead:
        return tree, label_map
    labeled = dead.intersection(label_map.values())
    if labeled:
        raise errors.ValidationError(
            f"vertex {min(labeled)} has one child but carries a label; cannot collapse"
        )
    parents = tree.parents.tolist()
    keep = [v for v in range(tree.n_vertices) if v not in dead]
    remap = {v: i for i, v in enumerate(keep)}

    def kept_parent(v: int) -> int | None:
        # chains of spliced vertices reparent to the nearest kept ancestor
        p = parents[v]
        while p in dead:
            p = parents[p]
        return None if p < 0 else remap[p]

    scalars = tree.scalars.tolist()
    new_tree = MergeTree([scalars[v] for v in keep], [kept_parent(v) for v in keep])
    return new_tree, {l: remap[v] for l, v in label_map.items()}


def _canonical_order(lt: LabeledMergeTree, scalars: list[float]) -> list[int]:
    """Vertices in BFS order with children sorted by a structural key;
    ``scalars`` is ``lt.tree.scalars.tolist()``."""
    children = lt.tree.all_children
    labels = lt.labels.by_vertex
    bfs = [lt.tree.root]
    for v in bfs:
        bfs.extend(children[v])
    key: list[tuple] = [()] * len(scalars)
    ordered: list[list[int]] = [[]] * len(scalars)  # v's children, sorted by key
    for v in reversed(bfs):  # children before parents: keys build bottom-up
        kids = ordered[v] = sorted(children[v], key=key.__getitem__)
        key[v] = (scalars[v], labels.get(v, ()), tuple([key[c] for c in kids]))
    order = [lt.tree.root]
    for v in order:
        order.extend(ordered[v])
    return order


def write_mtree(lt: LabeledMergeTree) -> str:
    """Canonical serialization; see the module docstring."""
    scalars = lt.tree.scalars.tolist()
    parents = lt.tree.parents.tolist()
    labels = lt.labels.by_vertex
    order = _canonical_order(lt, scalars)
    ids = [0] * len(scalars)
    for i, v in enumerate(order):
        ids[v] = i
    lines = [_HEADER]
    lines += [
        "v %d %.17g %s" % (i, scalars[v], " ".join(map(str, labels[v])))
        if v in labels
        else "v %d %.17g" % (i, scalars[v])
        for i, v in enumerate(order)
    ]
    lines += ["e %d %d" % (i, ids[parents[order[i]]]) for i in range(1, len(order))]
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
        if isinstance(self.member_ids, str) or not isinstance(self.member_ids, Iterable):
            raise errors.ValidationError("member ids must be a collection of strings")
        ids = tuple(self.member_ids)
        if not all(isinstance(m, str) for m in ids):
            raise errors.ValidationError("member ids must be strings")
        if len(set(ids)) != len(ids):
            raise errors.ValidationError("duplicate member ids")
        object.__setattr__(self, "member_ids", ids)
        object.__setattr__(self, "values", _float_matrix(self.values, (len(ids),) * 2))

    def check(self) -> None:
        v = self.values
        # a failed pair is NaN on both sides; an infinity matches only itself,
        # and a difference past float64 is no match either
        with np.errstate(over="ignore"):
            symmetric = np.isclose(v, v.T, rtol=0.0, atol=1e-9, equal_nan=True).all()
        if not symmetric:
            raise errors.ValidationError("matrix is not symmetric")
        if not np.all(np.abs(np.diag(v)) <= 1e-9):
            raise errors.ValidationError("diagonal is not zero")


def _quote(cell: str) -> str:
    """``cell`` as an RFC 4180 field, quoted only if it holds a comma, a quote
    or a line break (the csv module's writer misses a bare CR under LF ends)."""
    return '"' + cell.replace('"', '""') + '"' if set(cell) & set(',"\r\n') else cell


def write_matrix_csv(matrix: DistanceMatrix, path) -> None:
    """Bit-stable CSV: header 'id,<members>' ('id' alone for no members);
    one row per member, each value its float's repr."""
    ids = [_quote(mid) for mid in matrix.member_ids]
    lines = [",".join(["id"] + ids)]
    for mid, row in zip(ids, matrix.values):
        lines.append(",".join([mid] + [repr(x) for x in row.tolist()]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_matrix_csv(path) -> DistanceMatrix:
    """Inverse of :func:`write_matrix_csv`, through the csv module; each row
    must start with the member id the header lists at its position and hold
    one number per member, and there is one row per member.  An error names
    the physical line on which its record ends."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f, strict=True)
        try:
            records = [(reader.line_num, cells) for cells in reader]
        except csv.Error as exc:
            raise errors.MtreeSyntaxError(reader.line_num, f"bad CSV: {exc}") from None
    if not records:
        raise errors.MtreeSyntaxError(1, "empty matrix file")
    if records[0][1][:1] != ["id"]:
        raise errors.MtreeSyntaxError(1, "expected 'id' corner cell")
    ids = tuple(records[0][1][1:])
    rows = []
    for mid, (line_no, cells) in zip(ids, records[1:]):
        if cells[:1] != [mid]:
            raise errors.MtreeSyntaxError(
                line_no, f"row id {(cells or [''])[0]!r} where the header puts {mid!r}"
            )
        if len(cells) != len(ids) + 1:
            raise errors.MtreeSyntaxError(
                line_no, f"{len(cells) - 1} values where the header lists {len(ids)} members"
            )
        try:
            rows.append(list(map(_ascii_number(float), cells[1:])))
        except ValueError:
            raise errors.MtreeSyntaxError(line_no, "non-numeric matrix cell") from None
    if len(records) != len(ids) + 1:
        msg = f"{len(records) - 1} rows where the header lists {len(ids)} members"
        raise errors.MtreeSyntaxError(records[len(rows)][0] + 1, msg)
    return DistanceMatrix(ids, np.reshape(rows, (len(ids),) * 2))


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
    """Linear grayscale, minimum value white, maximum black; NaN red.  Levels
    are taken in halves, so no difference of finite values leaves float64."""
    v = matrix.values / 2
    finite = np.isfinite(v)
    if finite.any():
        lo = float(v[finite].min())
        span = float(v[finite].max()) - lo
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


def write_comparison_heatmap(ours: DistanceMatrix, base: DistanceMatrix, path) -> None:
    """Per-cell trichotomy of two matrices over the same members; ties are
    taken in halves, so no difference of finite values leaves float64."""
    if ours.member_ids != base.member_ids:
        raise errors.LabelMismatch("comparison needs identical member lists")
    a, b = ours.values / 2, base.values / 2
    finite = np.isfinite(a) & np.isfinite(b)
    pixels = np.empty(a.shape + (3,), dtype=np.float64)
    pixels[:] = _NAN_RGB
    equal = finite & (np.abs(a - b) <= TIE_TOL * np.maximum(0.5, np.abs(b)))
    better = finite & ~equal & (a < b)
    worse = finite & ~equal & (a > b)
    pixels[equal] = _EQUAL_RGB
    pixels[better] = _BETTER_RGB
    pixels[worse] = _WORSE_RGB
    _write_p6(pixels, path)
