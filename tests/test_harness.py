"""Batch harness and CLI: generation, matrices, comparison, bench, exit codes."""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from mtdist import errors, harness, read_mtree_file
from mtdist.cli import main
from mtdist.harness import (
    cmd_bench,
    cmd_compare,
    cmd_dist,
    cmd_gen,
    cmd_matrix,
    distance_matrix,
    load_corpus,
)
from mtdist.io import read_matrix_csv

from conftest import FIXTURES


@pytest.fixture(scope="module")
def small_ensemble(tmp_path_factory):
    out = tmp_path_factory.mktemp("ens")
    files = cmd_gen(out, max_vertices=15, count=6, label_fraction=0.5, seed=42)
    return [str(p) for p in files]


def _example_files(n):
    return [str(FIXTURES / f"example{n}_a.mtree"), str(FIXTURES / f"example{n}_b.mtree")]


# -- gen -------------------------------------------------------------------------


def test_gen_writes_members_and_manifest(tmp_path):
    files = cmd_gen(tmp_path, preset="random_50", seed=7)
    assert len(files) == 20
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["max_vertices"] == 50
    assert manifest["seed"] == 7
    assert manifest["files"] == [f"member_{i:02d}.mtree" for i in range(20)]
    for f in files:
        read_mtree_file(f).validate()


def test_gen_rerun_is_byte_identical(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    cmd_gen(a_dir, max_vertices=21, count=4, seed=9)
    cmd_gen(b_dir, max_vertices=21, count=4, seed=9)
    for name in ("member_00.mtree", "member_03.mtree", "manifest.json"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_gen_count_one(tmp_path):
    files = cmd_gen(tmp_path, max_vertices=9, count=1, seed=0)
    assert len(files) == 1


def test_gen_needs_size(tmp_path):
    with pytest.raises(errors.ValidationError):
        cmd_gen(tmp_path)


# -- dist ------------------------------------------------------------------------


def test_dist_golden_values():
    assert cmd_dist("elm", *_example_files(1)).distance == 0.5
    assert cmd_dist("greedy", *_example_files(2)).distance == 3.0
    assert cmd_dist("mmb", *_example_files(3)).distance == 0.5
    assert cmd_dist("oracle", *_example_files(1)).distance == 0.5


def test_dist_self_pair_full_labels(tmp_path):
    f = _example_files(1)[0]
    assert cmd_dist("elm", f, f).distance == 0.0
    assert cmd_dist("full", f, f).distance == 0.0


# -- matrix ----------------------------------------------------------------------


def test_matrix_two_inputs(tmp_path):
    matrix, failures, seconds = cmd_matrix(
        "elm", _example_files(1), tmp_path, workers=1
    )
    assert failures == []
    assert matrix.values[0, 1] == 0.5
    assert matrix.values.shape == (2, 2)
    assert seconds >= 0.0
    csv = read_matrix_csv(tmp_path / "distances_elm.csv")
    assert csv.member_ids == ("example1_a", "example1_b")


def test_matrix_pair_count_and_invariants(small_ensemble, tmp_path):
    matrix, failures, _ = cmd_matrix("mmb", small_ensemble, tmp_path, workers=1)
    n = len(small_ensemble)
    assert matrix.values.shape == (n, n)
    assert failures == []
    matrix.check(zero_diagonal=True)
    off_diag = matrix.values[~np.eye(n, dtype=bool)]
    assert np.all(np.isfinite(off_diag))


def test_matrix_parallel_matches_serial(small_ensemble, tmp_path):
    serial_dir = tmp_path / "serial"
    par_dir = tmp_path / "par"
    cmd_matrix("elm", small_ensemble, serial_dir, workers=1)
    cmd_matrix("elm", small_ensemble, par_dir, workers=2)
    a = (serial_dir / "distances_elm.csv").read_bytes()
    b = (par_dir / "distances_elm.csv").read_bytes()
    assert a == b


def test_matrix_heatmap_written(small_ensemble, tmp_path):
    cmd_matrix("elm", small_ensemble, tmp_path, workers=1, heatmap=True)
    raw = (tmp_path / "distances_elm.ppm").read_bytes()
    assert raw.startswith(b"P6\n")


def test_matrix_greedy_on_disjoint_pairs_degrades(tmp_path):
    gen_dir = tmp_path / "gen"
    cmd_gen(gen_dir, max_vertices=9, count=3, label_fraction=0.0, seed=1)
    inputs = sorted(str(p) for p in gen_dir.glob("*.mtree"))
    matrix, failures, _ = cmd_matrix("greedy", inputs, tmp_path, workers=1)
    assert len(failures) == 3  # all pairs are disjoint-label
    assert np.isnan(matrix.values[0, 1])


def test_matrix_needs_two_inputs(tmp_path):
    with pytest.raises(errors.ValidationError):
        cmd_matrix("elm", _example_files(1)[:1], tmp_path)


# -- compare ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,expect",
    [
        (1, {"G>M1": 1, "M1>G": 0, "G>M2": 1, "M2>G": 0}),
        (2, {"G>M1": 1, "M1>G": 0, "G>M2": 1, "M2>G": 0}),
        (3, {"G>M1": 0, "M1>G": 1, "G>M2": 1, "M2>G": 0}),
    ],
)
def test_compare_single_example_counts(n, expect, tmp_path):
    report = cmd_compare(_example_files(n), tmp_path, heatmap=True)
    for key, want in expect.items():
        assert report.counts[key] == want, (n, key)
    assert report.pair_count == 1
    assert (tmp_path / "compare_elm_vs_greedy.ppm").exists()
    assert (tmp_path / "compare_mmb_vs_greedy.ppm").exists()
    assert (tmp_path / "report.json").exists()


def test_compare_heatmap_cell_matches_per_cell_comparison(tmp_path):
    # example-1 pair: trim-and-match 0.5 beats the baseline's 2, so the
    # off-diagonal cell must use the "first method better" color
    cmd_compare(_example_files(1), tmp_path)
    raw = (tmp_path / "compare_elm_vs_greedy.ppm").read_bytes()
    body = raw[len(b"P6\n2 2\n255\n"):]
    cells = [tuple(body[i : i + 3]) for i in range(0, 12, 3)]
    assert cells[1] == (40, 80, 220)
    assert cells[0] == (128, 128, 128)  # self-cell ties


def test_compare_counts_partition(small_ensemble, tmp_path):
    report = cmd_compare(small_ensemble, tmp_path, heatmap=False)
    n_pairs = report.greedy_pair_count
    c = report.counts
    assert c["G>M1"] + c["M1>G"] + c["ties_m1"] == n_pairs
    assert c["G>M2"] + c["M2>G"] + c["ties_m2"] == n_pairs
    assert report.pair_count == len(small_ensemble) * (len(small_ensemble) - 1) // 2
    assert report.averages["avg_vertices"] > 0


def test_compare_identical_trees_all_tie(tmp_path):
    src = FIXTURES / "example1_a.mtree"
    for i in range(3):
        shutil.copy(src, tmp_path / f"copy_{i}.mtree")
    out = tmp_path / "out"
    report = cmd_compare(sorted(str(p) for p in tmp_path.glob("*.mtree")), out)
    assert report.counts["ties_m1"] == report.greedy_pair_count == 3
    assert report.counts["G>M1"] == report.counts["M1>G"] == 0


def test_compare_disjoint_pairs_reported_separately(tmp_path):
    gen_dir = tmp_path / "gen"
    cmd_gen(gen_dir, max_vertices=9, count=3, label_fraction=0.0, seed=2)
    inputs = sorted(str(p) for p in gen_dir.glob("*.mtree"))
    report = cmd_compare(inputs, tmp_path / "out", heatmap=False)
    assert report.greedy_pair_count == 0
    assert report.disagreement_pair_count == 3
    total = sum(report.disagreement_counts.values())
    assert total == 3
    assert report.failures == []  # the baseline's refusals are documented


def _write_compare_corpus_with_leafless_member(root):
    # every pair is disjoint-label; the single vertex has no leaves, so elm
    # and mmb fail on the two pairs that include it
    shutil.copy(FIXTURES / "example1_a.mtree", root / "example1_a.mtree")
    (root / "three.mtree").write_text(
        "mtree 1\nv 0 2.0\nv 1 0.0 7\nv 2 0.5 8\ne 1 0\ne 2 0\n"
    )
    (root / "single.mtree").write_text("mtree 1\nv 0 1.0\n")
    return sorted(str(p) for p in root.glob("*.mtree"))


def test_compare_failures_are_reported_not_counted(tmp_path):
    inputs = _write_compare_corpus_with_leafless_member(tmp_path)
    report = cmd_compare(inputs, tmp_path / "out")
    failed = sorted((f["method"], f["member_a"], f["member_b"]) for f in report.failures)
    assert failed == [
        ("elm", "example1_a", "single"),
        ("elm", "single", "three"),
        ("mmb", "example1_a", "single"),
        ("mmb", "single", "three"),
    ]
    assert all(f["error"].startswith("DisagreementEmptyTree") for f in report.failures)
    # greedy's refusal of disjoint-label pairs is documented, not a failure
    assert report.disagreement_pair_count == 3
    assert report.disagreement_counts == {"M1>M2": 0, "M2>M1": 0, "ties": 1}
    saved = json.loads((tmp_path / "out" / "report.json").read_text())
    assert saved["failures"] == report.failures


def test_cli_compare_failures_exit_3(tmp_path, capsys):
    inputs = _write_compare_corpus_with_leafless_member(tmp_path)
    assert main(["compare", *inputs, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.count("failed pair") == 4
    assert "single / three (mmb): DisagreementEmptyTree" in err


def test_any_exception_in_a_pair_is_a_failure_row(monkeypatch, tmp_path):
    def overflows(a, b):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setitem(harness.METHODS, "elm", overflows)
    corpus = load_corpus(_example_files(1))
    matrix, failures, _ = distance_matrix("elm", corpus, workers=1)
    assert np.isnan(matrix.values[0, 1])
    assert failures == [
        ("example1_a", "example1_b", "RecursionError: maximum recursion depth exceeded")
    ]
    report = cmd_compare(_example_files(1), tmp_path)
    assert [f["method"] for f in report.failures] == ["elm"]
    assert sum(report.counts.values()) == 0


# -- bench -----------------------------------------------------------------------


def test_bench_minimal(tmp_path):
    payload = cmd_bench(_example_files(1), repeat=1)
    assert set(payload["timings"]) == {"elm", "mmb", "greedy"}
    for row in payload["timings"].values():
        assert row["runs"] == 1
        assert row["mean_s"] >= 0.0
    assert payload["pairs"] == 1
    assert "platform" in payload["machine"]


def test_bench_repeat_reports_stdev(tmp_path):
    out = tmp_path / "bench.json"
    payload = cmd_bench(_example_files(1), repeat=3, out_path=out)
    for row in payload["timings"].values():
        assert row["runs"] == 3
        assert row["stdev_s"] >= 0.0
    assert json.loads(out.read_text())["repeat"] == 3


# -- corpus loading ---------------------------------------------------------------


def test_load_corpus_sorts_and_rejects_duplicates(tmp_path):
    a = tmp_path / "b_tree.mtree"
    b = tmp_path / "a_tree.mtree"
    shutil.copy(FIXTURES / "example1_a.mtree", a)
    shutil.copy(FIXTURES / "example1_b.mtree", b)
    corpus = load_corpus([str(a), str(b)])
    assert [mid for mid, _ in corpus] == ["a_tree", "b_tree"]
    with pytest.raises(errors.ValidationError):
        load_corpus([str(a), str(a)])


def test_load_corpus_rejects_placeholder_collisions(tmp_path):
    # member "a" rewrites its -1 leaf to 10^8, the label "b" carries explicitly
    tree = "mtree 1\nv 0 2.0\nv 1 0.0 1\nv 2 0.0 {}\ne 1 0\ne 2 0\n"
    paths = [str(tmp_path / "a.mtree"), str(tmp_path / "b.mtree")]
    (tmp_path / "a.mtree").write_text(tree.format(-1))
    (tmp_path / "b.mtree").write_text(tree.format(100_000_000))
    with pytest.raises(errors.ValidationError, match="placeholder"):
        load_corpus(paths)
    (tmp_path / "b.mtree").write_text(tree.format(-1))
    corpus = load_corpus(paths)
    assert [sorted(l for l, _ in t.labels.items()) for _, t in corpus] == [
        [1, 100_000_000],
        [1, 200_000_000],
    ]


# -- CLI -------------------------------------------------------------------------


def test_cli_dist_rejects_placeholder_collisions(tmp_path, capsys):
    # a's -1 leaf becomes 10^8, the label b carries explicitly
    tree = "mtree 1\nv 0 2.0\nv 1 0.0 1\nv 2 0.0 {}\ne 1 0\ne 2 0\n"
    (tmp_path / "a.mtree").write_text(tree.format(-1))
    (tmp_path / "b.mtree").write_text(tree.format(100_000_000))
    code = main(["dist", "elm", str(tmp_path / "a.mtree"), str(tmp_path / "b.mtree")])
    assert code == 2
    assert "placeholder" in capsys.readouterr().err
    # one file against itself: each side's placeholders stay its own
    assert main(["dist", "elm", str(tmp_path / "a.mtree"), str(tmp_path / "a.mtree")]) == 0
    assert "distance: 0.0" in capsys.readouterr().out


def test_cli_dist_prints_distance(capsys):
    code = main(["dist", "elm", *_example_files(1)])
    out = capsys.readouterr().out
    assert code == 0
    assert "distance: 0.5" in out
    assert "trimmed: 3" in out


def test_cli_usage_error_is_exit_1(capsys):
    assert main(["dist", "nonsense", "x", "y"]) == 1
    assert main([]) == 1


def test_cli_data_error_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.mtree"
    bad.write_text("mtree 1\nv 0 1.0\nv 1 5.0 1\ne 1 0\n")  # child above parent
    assert main(["dist", "elm", str(bad), str(bad)]) == 2
    missing = tmp_path / "nope.mtree"
    assert main(["dist", "elm", str(missing), str(missing)]) == 2
    binary = tmp_path / "junk.mtree"
    binary.write_bytes(b"\xff\xfe\x00junk")
    assert main(["dist", "elm", str(binary), str(binary)]) == 2


def test_cli_matrix_partial_failure_is_exit_3(tmp_path, capsys):
    gen_dir = tmp_path / "gen"
    cmd_gen(gen_dir, max_vertices=9, count=3, label_fraction=0.0, seed=3)
    inputs = sorted(str(p) for p in gen_dir.glob("*.mtree"))
    code = main(["matrix", *inputs, "--method", "greedy", "--out", str(tmp_path / "o")])
    assert code == 3


def test_cli_gen_and_compare_roundtrip(tmp_path, capsys):
    gen_dir = tmp_path / "trees"
    assert main(["gen", "--max-vertices", "13", "--count", "4", "--seed", "5",
                 "--out", str(gen_dir)]) == 0
    inputs = sorted(str(p) for p in gen_dir.glob("*.mtree"))
    assert main(["compare", *inputs, "--out", str(tmp_path / "cmp")]) == 0
    out = capsys.readouterr().out
    assert "counts (% of greedy-comparable pairs)" in out


def test_cli_respects_mt_workers_env(small_ensemble, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MT_WORKERS", "2")
    code = main(["matrix", *small_ensemble, "--out", str(tmp_path)])
    assert code == 0


@pytest.mark.parametrize("value", ["0", "-3"])
def test_cli_rejects_mt_workers_below_one(value, small_ensemble, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MT_WORKERS", value)
    assert main(["matrix", *small_ensemble, "--out", str(tmp_path)]) == 2
    assert "worker count" in capsys.readouterr().err
    assert main(["compare", *small_ensemble, "--out", str(tmp_path)]) == 2


def test_cli_bench(tmp_path, capsys):
    assert main(["bench", *_example_files(1), "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    assert "elm:" in out and "greedy:" in out
