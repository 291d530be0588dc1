"""mtree parsing/serialization, CSV matrices, pixmap heatmaps."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtdist import (
    DistanceMatrix,
    LabeledMergeTree,
    LabelTable,
    MergeTree,
    errors,
    parse_mtree,
    read_mtree_file,
    write_matrix_csv,
    write_mtree,
)
from mtdist.io import (
    _ascii_number,
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
    assert parse_mtree(text, unknown_label_base=np.int64(1000)).leaf_labels() == (4, 1000)


@pytest.mark.parametrize("base", ["7", 7.0, [7]])
def test_unknown_label_base_is_an_integer(base):
    text = "mtree 1\nv 0 3.0\nv 1 0.0 -1\nv 2 0.0 4\ne 1 0\ne 2 0\n"
    with pytest.raises(errors.ValidationError, match="unknown_label_base must be an integer"):
        parse_mtree(text, unknown_label_base=base)


_TWO_LEAVES = "mtree 1\nv 0 0.0\nv 1 -1.0 1\nv 2 -1.0 2\ne 1 0\ne 2 0\n"


@pytest.mark.parametrize(
    "extra, error",
    [
        ("v 3 -0.5\ne 3 3\n", errors.CycleDetected),
        ("v 3 -0.5\nv 4 -0.6\ne 3 4\ne 4 3\n", errors.CycleDetected),
        ("v 3 0.5\nv 4 -2.0 3\ne 3 0\ne 4 3\n", errors.NonDecreasingScalar),
    ],
    ids=["self-loop", "detached-two-cycle", "one-child-above-parent"],
)
def test_invalid_tree_refused_before_unary_splice(extra, error):
    # splicing first used to drop the offending vertices and load a valid tree
    with pytest.raises(error):
        parse_mtree(_TWO_LEAVES + extra)


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


def test_second_parent_reported_at_its_edge_line():
    text = "mtree 1\nv 0 3.0\nv 1 2.0\nv 2 0.0 1\ne 2 0\n# again\ne 2 1\n"
    with pytest.raises(errors.MtreeSyntaxError, match="vertex 2 has two parents") as info:
        parse_mtree(text)
    assert info.value.line_no == 7


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


def _reference_order(lt):
    """The nested structural key of the module docstring, spelled out with
    the checked accessors: the order write_mtree must reproduce."""
    tree = lt.tree
    bfs = [tree.root]
    for v in bfs:
        bfs.extend(tree.children(v))
    key = {}
    for v in reversed(bfs):
        kids = sorted(key[c] for c in tree.children(v))
        key[v] = (float(tree.scalars[v]), lt.labels.labels_of(v), tuple(kids))
    order = [tree.root]
    for v in order:
        order.extend(sorted(tree.children(v), key=key.__getitem__))
    return order


def _reference_write(lt):
    order = _reference_order(lt)
    ids = {v: i for i, v in enumerate(order)}
    lines = ["mtree 1"]
    for v in order:
        toks = ["v", str(ids[v]), "%.17g" % float(lt.tree.scalars[v])]
        toks.extend(str(l) for l in lt.labels.labels_of(v))
        lines.append(" ".join(toks))
    for v in order:
        p = lt.tree.parent(v)
        if p is not None:
            lines.append(f"e {ids[v]} {ids[p]}")
    return "\n".join(lines) + "\n"


def _tied_tree(rng):
    """A random tree whose scalar is minus the depth, so every sibling and
    cousin ties on scalar and labels or deeper children decide the order."""
    size = rng.randint(3, 40)
    parents = [None]
    frontier = [0]
    while len(parents) < size:
        v = frontier.pop(rng.randrange(len(frontier)))
        for _ in range(rng.randint(2, 3)):
            parents.append(v)
            frontier.append(len(parents) - 1)
    depth = [0] * len(parents)
    for v in range(1, len(parents)):
        depth[v] = depth[parents[v]] + 1
    tree = MergeTree([-float(d) for d in depth], parents)
    labels = {}
    pool = rng.sample(range(1, 200), 2 * len(parents))
    for v in range(len(parents)):
        if v in tree.leaves or rng.random() < 0.2:
            for _ in range(1 if v in tree.leaves else rng.randint(1, 2)):
                labels[pool.pop()] = v
    return LabeledMergeTree(tree, LabelTable(labels))


def test_write_order_matches_nested_key_on_scalar_ties():
    rng = random.Random(11)
    for _ in range(200):
        lt = _tied_tree(rng)
        assert write_mtree(lt) == _reference_write(lt)
    # siblings tie on scalar: labels decide; cousins also tie on labels
    # (none): their children's keys decide
    lt = parse_mtree(
        "mtree 1\nv 0 0\nv 1 -1\nv 2 -1\n"
        "v 3 -2 9\nv 4 -2 4\nv 5 -2 8 1\nv 6 -2 2\nv 7 -1 3\n"
        "e 1 0\ne 2 0\ne 3 1\ne 4 1\ne 5 2\ne 6 2\ne 7 0\n",
        unknown_label_base=100,
    )
    text = write_mtree(lt)
    assert text == _reference_write(lt)
    assert text.splitlines()[1:9] == [
        "v 0 0", "v 1 -1", "v 2 -1", "v 3 -1 3",
        "v 4 -2 1 8", "v 5 -2 2", "v 6 -2 4", "v 7 -2 9",
    ]

_ROOT = "mtree 1\nv 0 1.0\n"


@pytest.mark.parametrize(
    "text, error, line_no, message",
    [
        ("not a tree\n", errors.MtreeSyntaxError, 1, "expected header"),
        ("\n# lead\nmtree 2\n", errors.MtreeSyntaxError, 3, "expected header"),
        ("mtree 1 1\n", errors.MtreeSyntaxError, 1, "expected header"),
        (_ROOT + "v 1\n", errors.MtreeSyntaxError, 3, "needs id and scalar"),
        (_ROOT + "v x 0.0\n", errors.MtreeSyntaxError, 3, "bad vertex id or scalar"),
        (_ROOT + "v 1 y\n", errors.MtreeSyntaxError, 3, "bad vertex id or scalar"),
        (_ROOT + "v -1 0.0\n", errors.MtreeSyntaxError, 3, "non-negative"),
        (_ROOT + "\nv 0 0.5\n", errors.MtreeSyntaxError, 4, "vertex 0 defined twice"),
        (_ROOT + "v 1 0.0 z\n", errors.MtreeSyntaxError, 3, "bad label 'z'"),
        (_ROOT + "v 1 0.0 0\n", errors.MtreeSyntaxError, 3, "label 0 "),
        (_ROOT + "v 1 0.0 -2\n", errors.MtreeSyntaxError, 3, "label -2 "),
        (_ROOT + "v 1 0.0 2 2\n", errors.DuplicateLabel, 3, "label 2 repeated"),
        (_ROOT + "v 1 0.0 1\ne 1\n", errors.MtreeSyntaxError, 4, "edge line is"),
        (_ROOT + "v 1 0.0 1\ne 1 0 0\n", errors.MtreeSyntaxError, 4, "edge line is"),
        (_ROOT + "v 1 0.0 1\ne 1 r\n", errors.MtreeSyntaxError, 4, "bad edge ids"),
        (_ROOT + "q zzz\n", errors.MtreeSyntaxError, 3, "unknown record 'q'"),
        (_ROOT + "mtree 1\n", errors.MtreeSyntaxError, 3, "unknown record 'mtree'"),
        (_ROOT + "v 1 0.0 1\ne 1 0\n# again\ne 1 0\n", errors.MtreeSyntaxError, 6,
         "vertex 1 has two parents"),
        (_ROOT + "v 1 0.0 1\ne 1 0\ne 2 0\n", errors.DisconnectedVertex, None,
         "edge \\(2, 0\\) references undefined vertex 2"),
        (_ROOT + "v 1 0.0 1\ne 1 7\n", errors.DisconnectedVertex, None,
         "references undefined vertex 7"),
        ("", errors.MtreeSyntaxError, 1, "empty document"),
        ("# only a comment\n\n", errors.MtreeSyntaxError, 1, "empty document"),
        ("mtree 1\n# nothing else\n", errors.MtreeSyntaxError, 1, "no vertices"),
        (_ROOT + "v 1 0.0 3\nv 2 0.0 3\ne 1 0\ne 2 0\n", errors.DuplicateLabel, None,
         "label 3 on two vertices"),
        # labels go through int64 arrays; LabelTable refuses what does not fit
        (_ROOT + "v 1 0.0 99999999999999999999\ne 1 0\n", errors.ValidationError, None,
         "^label 99999999999999999999 is not an integer in 1..2\\*\\*63 - 1$"),
        (_ROOT + "v 1 0.0 9223372036854775807\nv 2 0.0 -1\ne 1 0\ne 2 0\n",
         errors.ValidationError, None, "^label 9223372036854775808 is not an integer in"),
        # Python's int() and float() also take these: 10, 3, 1000.5, 1, 0.5
        (_ROOT + "v 1_0 0.0\n", errors.MtreeSyntaxError, 3, "bad vertex id or scalar"),
        (_ROOT + "v 1 0.0 \u0663\n", errors.MtreeSyntaxError, 3, "bad label '\u0663'"),
        (_ROOT + "v 1 1_000.5\n", errors.MtreeSyntaxError, 3, "bad vertex id or scalar"),
        (_ROOT + "v 1 0.0 1\ne \uff11 0\n", errors.MtreeSyntaxError, 4, "bad edge ids"),
        (_ROOT + "v 1 \u0660.5 1\n", errors.MtreeSyntaxError, 3, "bad vertex id or scalar"),
        (_ROOT + "v 1 0.0 1_0\n", errors.MtreeSyntaxError, 3, "bad label '1_0'"),
    ],
    ids=[
        "no-header", "header-after-blank-and-comment", "header-extra-token",
        "short-vertex", "bad-id", "bad-scalar", "negative-id", "vertex-twice",
        "bad-label-token", "label-zero", "label-minus-two", "label-repeated-on-line",
        "edge-too-short", "edge-too-long", "bad-edge-id", "unknown-record",
        "second-header", "second-parent", "undefined-child", "undefined-parent",
        "empty", "comment-only", "no-vertices", "label-on-two-vertices",
        "label-beyond-int64", "placeholder-beyond-int64",
        "underscore-id", "arabic-indic-label", "underscore-scalar", "full-width-edge-id",
        "arabic-indic-scalar", "underscore-label",
    ],
)
def test_parse_errors_pinned(text, error, line_no, message):
    # every raise in parse_mtree: its type, its line number and its message
    with pytest.raises(error, match=message) as info:
        parse_mtree(text)
    assert type(info.value) is error
    if line_no is not None:  # DuplicateLabel carries its line in the message only
        assert str(info.value).startswith(f"line {line_no}: ")
        assert getattr(info.value, "line_no", line_no) == line_no


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
        parse_mtree(text)  # a tree that is built is valid
    except errors.MtdistError:
        pass


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


def test_matrix_csv_round_trips_ids_that_need_quoting(tmp_path):
    ids = ("a,b", 'c"d', "e\nf", "g\rh", "plain")
    values = np.arange(25.0).reshape(5, 5)
    m = DistanceMatrix(ids, values + values.T)
    path = tmp_path / "m.csv"
    write_matrix_csv(m, path)
    assert path.read_bytes().startswith(b'id,"a,b","c""d","e\nf","g\rh",plain\n"a,b",0.0,')
    back = read_matrix_csv(path)
    assert back.member_ids == ids
    assert np.array_equal(back.values, m.values)
    # errors name the physical line: the header takes lines 1 to 3
    path.write_text('id,"a\nb","c\nd"\n"a\nb",0.0,x\n', newline="")
    with pytest.raises(errors.MtreeSyntaxError, match="non-numeric") as info:
        read_matrix_csv(path)
    assert info.value.line_no == 5
    path.write_text('id,a\na,"0.0\n', newline="")
    with pytest.raises(errors.MtreeSyntaxError, match="bad CSV") as info:
        read_matrix_csv(path)
    assert info.value.line_no == 2  # the open quote runs to the end of the file


def test_matrix_csv_rejects_empty_file_and_misplaced_rows(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("")
    with pytest.raises(errors.MtreeSyntaxError) as info:
        read_matrix_csv(path)
    assert info.value.line_no == 1
    # well-formed cells, but the rows are in the other order than the header
    path.write_text("id,a,b\nb,1.5,0.0\na,0.0,1.5\n")
    with pytest.raises(errors.MtreeSyntaxError, match="'b'") as info:
        read_matrix_csv(path)
    assert info.value.line_no == 2


def test_matrix_csv_rejects_missing_id_corner(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("name,a\na,0.0\n")
    with pytest.raises(errors.MtreeSyntaxError, match="'id' corner") as info:
        read_matrix_csv(path)
    assert info.value.line_no == 1


def test_distance_matrix_refuses_wrong_shape_and_nonzero_diagonal():
    with pytest.raises(errors.LabelMismatch):
        DistanceMatrix(("a", "b"), np.zeros((2, 3)))
    with pytest.raises(errors.ValidationError, match="diagonal"):
        DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.5]])).check()


def test_matrix_csv_rejects_duplicate_member_ids(tmp_path):
    """A header naming one member twice would key two rows by one id."""
    path = tmp_path / "m.csv"
    path.write_text("id,a,a\na,0.0,1.0\na,1.0,0.0\n")
    with pytest.raises(errors.ValidationError, match="duplicate member ids"):
        read_matrix_csv(path)
    with pytest.raises(errors.ValidationError, match="duplicate member ids"):
        DistanceMatrix(("a", "b", "a"), np.zeros((3, 3)))


def test_distance_matrix_holds_string_ids_in_a_tuple(tmp_path):
    """Ids stored as given broke later: ints failed the CSV writer with a bare
    TypeError, and a list never equalled the same members held as a tuple."""
    values = np.array([[0.0, 1.0], [1.0, 0.0]])
    for ids in ((1, 2), "ab", 5):  # a string is no collection of ids, nor is a number
        with pytest.raises(errors.ValidationError, match="strings"):
            DistanceMatrix(ids, values)
    listed = DistanceMatrix(["a", "b"], values)
    assert listed.member_ids == ("a", "b")
    write_comparison_heatmap(listed, DistanceMatrix(("a", "b"), values), tmp_path / "c.ppm")


def test_distance_matrix_refuses_ragged_and_non_numeric_values():
    with pytest.raises(errors.LabelMismatch):
        DistanceMatrix(("a", "b"), [[0.0], [1.0, 0.0]])
    with pytest.raises(errors.ValidationError):
        DistanceMatrix(("a",), [["x"]])


def test_matrix_csv_rejects_short_row(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,a,b\na,0.0\nb,1.0,0.0\n")
    with pytest.raises(errors.MtreeSyntaxError, match="1 values") as info:
        read_matrix_csv(path)
    assert info.value.line_no == 2


def test_matrix_csv_rejects_non_numeric_cell(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,a,b\na,0.0,x\nb,1.0,0.0\n")
    with pytest.raises(errors.MtreeSyntaxError, match="non-numeric") as info:
        read_matrix_csv(path)
    assert info.value.line_no == 2


@pytest.mark.parametrize("cell", ["1_0", "\u0661", "\uff11.5", "1.0\u00a0"])
def test_matrix_csv_rejects_numbers_beyond_ascii(cell, tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(f"id,a,b\na,0.0,{cell}\nb,1.0,0.0\n", encoding="utf-8")
    with pytest.raises(errors.MtreeSyntaxError, match="non-numeric") as info:
        read_matrix_csv(path)
    assert info.value.line_no == 2


def test_numbers_keep_signs_exponents_nan_and_inf(tmp_path):
    for token, value in [("+3", 3), ("-0", 0), ("007", 7)]:
        assert _ascii_number(int)(token) == value
    for token in ["nan", "-inf", "Infinity", "1e-05", "-2.5E+300", "+.5", "5e-324", "-0.0"]:
        assert repr(_ascii_number(float)(token)) == repr(float(token))
    # a written CSV reads back bit for bit, NaN cells and infinities too
    values = np.array([[0.0, np.nan, 1e-300], [np.nan, 0.0, np.inf], [1e-300, np.inf, 0.0]])
    write_matrix_csv(DistanceMatrix(("a", "b", "c"), values), tmp_path / "m.csv")
    assert read_matrix_csv(tmp_path / "m.csv").values.tobytes() == values.tobytes()
    lt = parse_mtree("mtree 1\nv 0 +1E2\nv 1 -2.5e-1 +3\nv +2 -1e-3 4\ne 1 0\ne 2 +0\n")
    assert lt.tree.scalars.tolist() == [100.0, -0.25, -0.001]
    assert lt.leaf_labels() == (3, 4)
    # a comment beyond ASCII sends the document down the token-by-token
    # path, which reads its numbers the same
    commented = "mtree 1 # été_1\nv 0 +1E2\nv 1 -2.5e-1 +3\nv +2 -1e-3 4\ne 1 0\ne 2 +0\n"
    assert write_mtree(parse_mtree(commented)) == write_mtree(lt)


def test_matrix_csv_rejects_extra_and_missing_rows(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,a,b\na,0.0,1.0\nb,1.0,0.0\nc,2.0,2.0\n")
    with pytest.raises(errors.MtreeSyntaxError, match="3 rows") as info:
        read_matrix_csv(path)
    assert info.value.line_no == 4
    path.write_text("id,a,b\na,0.0,1.0\n")
    with pytest.raises(errors.MtreeSyntaxError, match="1 rows") as info:
        read_matrix_csv(path)
    assert info.value.line_no == 3


def test_matrix_csv_singleton(tmp_path):
    m = DistanceMatrix(("id",), np.array([[0.0]]))
    path = tmp_path / "one.csv"
    write_matrix_csv(m, path)
    assert path.read_text() == "id,id\nid,0.0\n"


def test_matrix_csv_empty_round_trip(tmp_path):
    path = tmp_path / "none.csv"
    write_matrix_csv(DistanceMatrix((), np.zeros((0, 0))), path)
    assert path.read_text() == "id\n"
    back = read_matrix_csv(path)
    assert back.member_ids == ()
    assert back.values.shape == (0, 0)
    # a row under an empty header is still one row too many
    path.write_text("id\na,0.0\n")
    with pytest.raises(errors.MtreeSyntaxError, match="1 rows"):
        read_matrix_csv(path)


def test_matrix_checks():
    good = DistanceMatrix(("a", "b"), np.array([[0.0, 2.0], [2.0, 0.0]]))
    good.check()
    lopsided = DistanceMatrix(("a", "b"), np.array([[0.0, 2.0], [1.0, 0.0]]))
    with pytest.raises(errors.ValidationError, match="not symmetric"):
        lopsided.check()
    # a failed pair is NaN in both of its cells; NaN against a number is not
    failed = DistanceMatrix(("a", "b"), np.array([[0.0, np.nan], [np.nan, 0.0]]))
    failed.check()
    half_failed = DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [np.nan, 0.0]]))
    with pytest.raises(errors.ValidationError, match="not symmetric"):
        half_failed.check()
    nan_diagonal = DistanceMatrix(("a", "b"), np.array([[np.nan, 2.0], [2.0, 0.0]]))
    with pytest.raises(errors.ValidationError, match="diagonal"):
        nan_diagonal.check()
    # an infinity equals only the same infinity, and is no zero diagonal
    for cells in ([[0.0, np.inf], [5.0, 0.0]], [[0.0, np.inf], [-np.inf, 0.0]]):
        with pytest.raises(errors.ValidationError, match="not symmetric"):
            DistanceMatrix(("a", "b"), np.array(cells)).check()
    DistanceMatrix(("a", "b"), np.array([[0.0, np.inf], [np.inf, 0.0]])).check()
    for diagonal in (np.inf, -np.inf):
        cells = np.array([[0.0, 2.0], [2.0, diagonal]])
        with pytest.raises(errors.ValidationError, match="diagonal"):
            DistanceMatrix(("a", "b"), cells).check()


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
