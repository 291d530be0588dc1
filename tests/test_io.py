"""mtree parsing/serialization, CSV matrices, pixmap heatmaps."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtdist import (
    DistanceMatrix,
    errors,
    parse_mtree,
    read_mtree_file,
    write_matrix_csv,
    write_mtree,
)
from mtdist.io import (
    read_matrix_csv,
    write_comparison_heatmap,
    write_heatmap,
)

from conftest import FIXTURES


MINIMAL = "mtree 1\nv 0 3.0\nv 1 0.0 1\ne 1 0\n"


def test_parse_minimal():
    lt = parse_mtree(MINIMAL)
    assert lt.tree.n_vertices == 2
    assert lt.leaf_labels() == (1,)
    assert float(lt.tree.scalars[lt.tree.root]) == 3.0


def test_round_trip_is_stable():
    for name in sorted(FIXTURES.glob("*.mtree")):
        lt = read_mtree_file(name)
        text = write_mtree(lt)
        again = parse_mtree(text)
        assert write_mtree(again) == text


def test_round_trip_preserves_full_precision():
    scalar = 0.1234567890123456789
    lt = parse_mtree(f"mtree 1\nv 0 1.0\nv 1 {scalar!r} 1\nv 2 0.5 2\ne 1 0\ne 2 0\n")
    out = parse_mtree(write_mtree(lt))
    leaf = out.labels.vertex_of(1)
    assert float(out.tree.scalars[leaf]) == float(scalar)


def test_structurally_equal_trees_serialize_identically():
    # same tree written with children and ids in different orders
    one = parse_mtree("mtree 1\nv 0 2.0\nv 1 0.0 1\nv 2 1.0 2\ne 1 0\ne 2 0\n")
    two = parse_mtree("mtree 1\nv 7 2.0\nv 3 1.0 2\nv 5 0.0 1\ne 3 7\ne 5 7\n")
    assert write_mtree(one) == write_mtree(two)


def test_degree_two_interior_collapsed():
    text = "mtree 1\nv 0 3.0\nv 1 2.0\nv 2 0.0 1\nv 3 1.0 2\ne 1 0\ne 2 1\ne 3 0\n"
    lt = parse_mtree(text)
    assert lt.tree.n_vertices == 3  # the unary vertex at 2.0 is spliced out
    assert lt.tree.path_distance(lt.labels.vertex_of(1), lt.tree.root) == 3.0


def test_labeled_degree_two_interior_rejected():
    text = "mtree 1\nv 0 3.0\nv 1 2.0 9\nv 2 0.0 1\nv 3 1.0 2\ne 1 0\ne 2 1\ne 3 0\n"
    with pytest.raises(errors.ValidationError):
        parse_mtree(text)


def test_minus_one_labels_rewritten():
    text = "mtree 1\nv 0 3.0\nv 1 0.0 -1\nv 2 0.0 4\ne 1 0\ne 2 0\n"
    lt = parse_mtree(text)
    assert lt.leaf_labels() == (4, 5)
    shifted = parse_mtree(text, unknown_label_base=1000)
    assert shifted.leaf_labels() == (4, 1000)


def test_missing_root_line():
    text = "mtree 1\nv 1 1.0 1\nv 2 0.5 2\ne 1 0\ne 2 0\n"
    with pytest.raises((errors.DisconnectedVertex, errors.MultipleRoots)):
        parse_mtree(text)
    no_edges = "mtree 1\nv 1 1.0 1\nv 2 0.5 2\n"
    with pytest.raises(errors.MultipleRoots):
        parse_mtree(no_edges)


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(errors.MtreeSyntaxError) as info:
        parse_mtree("mtree 1\nv 0 3.0\nq zzz\n")
    assert info.value.line_no == 3
    with pytest.raises(errors.MtreeSyntaxError):
        parse_mtree("not a tree\n")
    with pytest.raises(errors.MtreeSyntaxError):
        parse_mtree("mtree 1\nv 0\n")


def test_duplicate_labels_rejected():
    with pytest.raises(errors.DuplicateLabel):
        parse_mtree("mtree 1\nv 0 1.0\nv 1 0.0 2 2\ne 1 0\n")
    with pytest.raises(errors.DuplicateLabel):
        parse_mtree("mtree 1\nv 0 1.0\nv 1 0.0 2\nv 2 0.5 2\ne 1 0\ne 2 0\n")


def test_leaf_without_label_rejected():
    with pytest.raises(errors.MissingLeafLabel):
        parse_mtree("mtree 1\nv 0 1.0\nv 1 0.0 1\nv 2 0.0\ne 1 0\ne 2 0\n")


def test_comments_and_blank_lines_ignored():
    text = "mtree 1\n\n# a comment\nv 0 1.0  # trailing\nv 1 0.0 1\ne 1 0\n"
    assert parse_mtree(text).tree.n_vertices == 2


# mostly well-formed tokens, so that many documents get past the syntax checks
_IDS = st.sampled_from(["0", "1", "2", "3", "4"] * 3 + ["-1", "-2", "x"])
_LABELS = st.sampled_from(["1", "2", "3", "-1"] * 3 + ["0", "-2", "z"])
_NUMS = st.sampled_from(
    ["0", "1.5", "-1", "2", "3", "-0.5"] * 2 + ["nan", "inf", "1e400", "1e-320", "y"]
)
_VERTEX = st.tuples(_IDS, _NUMS, st.lists(_LABELS, max_size=2)).map(
    lambda t: " ".join(["v", t[0], t[1], *t[2]])
)
_EDGE = st.tuples(_IDS, _IDS).map(lambda t: f"e {t[0]} {t[1]}")
_JUNK = st.lists(st.sampled_from(["v", "e", "mtree", "1", "#", "-1", "z"]), max_size=4)
_LINES = st.one_of(_VERTEX, _VERTEX, _VERTEX, _EDGE, _EDGE, _EDGE, _JUNK.map(" ".join))


@given(st.sampled_from([True] * 4 + [False]), st.lists(_LINES, max_size=10))
@settings(max_examples=150, deadline=None)
def test_parse_mtree_accepts_valid_trees_or_raises_mtdist_errors(header, lines):
    # any other exception (IndexError, KeyError, ValueError, ...) fails the test
    text = "\n".join((["mtree 1"] if header else []) + lines)
    try:
        lt = parse_mtree(text)
    except errors.MtdistError:
        return
    lt.validate()


# -- matrices -----------------------------------------------------------------


def test_matrix_csv_round_trip(tmp_path):
    m = DistanceMatrix(("m0", "m1"), np.array([[0.0, 1.5], [1.5, 0.0]]))
    path = tmp_path / "m.csv"
    write_matrix_csv(m, path)
    text = path.read_text()
    assert text.splitlines()[0] == "id,m0,m1"
    back = read_matrix_csv(path)
    assert back.member_ids == ("m0", "m1")
    assert np.array_equal(back.values, m.values)


def test_matrix_csv_singleton(tmp_path):
    m = DistanceMatrix(("id",), np.array([[0.0]]))
    path = tmp_path / "one.csv"
    write_matrix_csv(m, path)
    assert path.read_text() == "id,id\nid,0.0\n"


def test_matrix_checks():
    good = DistanceMatrix(("a", "b"), np.array([[0.0, 2.0], [2.0, 0.0]]))
    good.check()
    lopsided = DistanceMatrix(("a", "b"), np.array([[0.0, 2.0], [1.0, 0.0]]))
    with pytest.raises(errors.ValidationError):
        lopsided.check()


def test_heatmap_p6_header_and_uniform(tmp_path):
    m = DistanceMatrix(("a", "b"), np.array([[0.0, 3.0], [3.0, 0.0]]))
    path = tmp_path / "h.ppm"
    write_heatmap(m, path)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n2 2\n255\n")
    body = raw[len(b"P6\n2 2\n255\n"):]
    assert len(body) == 2 * 2 * 3
    # min -> white, max -> black
    assert body[0:3] == b"\xff\xff\xff"
    assert body[3:6] == b"\x00\x00\x00"


def test_comparison_heatmap_colors(tmp_path):
    ours = DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    base = DistanceMatrix(("a", "b"), np.array([[0.0, 2.0], [0.5, 0.0]]))
    path = tmp_path / "c.ppm"
    write_comparison_heatmap(ours, base, path)
    body = path.read_bytes()[len(b"P6\n2 2\n255\n"):]
    cells = [tuple(body[i : i + 3]) for i in range(0, 12, 3)]
    assert cells[0] == (128, 128, 128)  # equal on the diagonal
    assert cells[1] == (40, 80, 220)    # ours smaller
    assert cells[2] == (235, 200, 30)   # ours larger


def test_comparison_heatmap_all_equal(tmp_path):
    m = DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    path = tmp_path / "e.ppm"
    write_comparison_heatmap(m, m, path)
    body = path.read_bytes()[len(b"P6\n2 2\n255\n"):]
    assert set(tuple(body[i : i + 3]) for i in range(0, 12, 3)) == {(128, 128, 128)}


def test_heatmap_nan_is_red(tmp_path):
    m = DistanceMatrix(("a", "b"), np.array([[0.0, np.nan], [np.nan, 0.0]]))
    path = tmp_path / "n.ppm"
    write_heatmap(m, path)
    body = path.read_bytes()[len(b"P6\n2 2\n255\n"):]
    assert tuple(body[3:6]) == (255, 0, 0)
