"""Batch harness and CLI: generation, matrices, comparison, bench, exit codes."""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing
import shutil
from collections import Counter

import numpy as np
import pytest

from mtdist import assignment, core, errors, harness, methods, read_mtree_file
from mtdist.cli import main
from mtdist.core import Agreement
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
        read_mtree_file(f)


def test_gen_rerun_is_byte_identical(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    cmd_gen(a_dir, max_vertices=21, count=4, seed=9)
    cmd_gen(b_dir, max_vertices=21, count=4, seed=9)
    for name in ("member_00.mtree", "member_03.mtree", "manifest.json"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_gen_refuses_a_directory_with_stale_members(tmp_path, capsys):
    cmd_gen(tmp_path, max_vertices=9, count=4, seed=0)
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(errors.ValidationError, match="member_02.mtree is not one of the 2"):
        cmd_gen(tmp_path, max_vertices=9, count=2, seed=1)
    assert main(["gen", "--max-vertices", "9", "--count", "2", "--seed", "1",
                 "--out", str(tmp_path)]) == 2
    assert "member_02.mtree" in capsys.readouterr().err
    # nothing was written, and the same or a larger count still overwrites
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first
    assert len(cmd_gen(tmp_path, max_vertices=9, count=4, seed=1)) == 4
    assert len(cmd_gen(tmp_path, max_vertices=9, count=5, seed=1)) == 5
    assert sorted(p.name for p in tmp_path.glob("member_*.mtree")) == [
        f"member_{i:02d}.mtree" for i in range(5)
    ]


def test_gen_count_one(tmp_path):
    files = cmd_gen(tmp_path, max_vertices=9, count=1, seed=0)
    assert len(files) == 1


def test_gen_needs_size(tmp_path):
    with pytest.raises(errors.ValidationError):
        cmd_gen(tmp_path)


def test_gen_refuses_preset_with_max_vertices(tmp_path):
    # the preset fixes the size, so a second size would be silently dropped
    with pytest.raises(errors.ValidationError, match="not both"):
        cmd_gen(tmp_path, preset="random_50", max_vertices=500)
    assert not list(tmp_path.iterdir())


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
    matrix.check()
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


@pytest.mark.filterwarnings("error")
def test_a_pair_without_a_scaled_copy_fails_only_its_own_cells(tmp_path):
    """Against the 1e300 span, the pair computes at 2^-499, where tiny's
    subnormal steps underflow into one value: its three cells fail with the
    copy's error, and the other two pairs are computed."""
    (tmp_path / "huge.mtree").write_text("mtree 1\nv 0 1e300\nv 1 0.0 1\ne 1 0\n")
    (tmp_path / "tiny.mtree").write_text(
        "mtree 1\nv 0 2e-320\nv 1 1e-320 1\nv 2 0.0 2\ne 1 0\ne 2 0\n"
    )
    shutil.copy(FIXTURES / "example1_a.mtree", tmp_path / "example1_a.mtree")
    inputs = sorted(str(p) for p in tmp_path.glob("*.mtree"))
    report = cmd_compare(inputs, tmp_path / "out")
    failed = sorted((f["method"], f["member_a"], f["member_b"]) for f in report.failures)
    assert failed == [(m, "huge", "tiny") for m in ("elm", "greedy", "mmb")]
    assert all(f["error"].startswith("NonDecreasingScalar: times 2**-499") for f in report.failures)
    values = read_matrix_csv(tmp_path / "out" / "distances_elm.csv").values
    assert np.isnan(values[1, 2]) and np.isfinite(values[0, 1]) and np.isfinite(values[0, 2])


def _overflows(*args):
    raise RecursionError("maximum recursion depth exceeded")


def test_any_exception_in_a_pair_is_a_failure_row(monkeypatch, tmp_path):
    monkeypatch.setitem(harness.METHODS, "elm", _overflows)
    corpus = load_corpus(_example_files(1))
    matrix, failures, _ = distance_matrix("elm", corpus, workers=1)
    assert np.isnan(matrix.values[0, 1])
    assert failures == [
        ("example1_a", "example1_b", "RecursionError: maximum recursion depth exceeded")
    ]
    # compare runs its estimators on one pair context, not through METHODS
    monkeypatch.setitem(harness.PAIR_STEPS, "elm", _overflows)
    report = cmd_compare(_example_files(1), tmp_path)
    assert [f["method"] for f in report.failures] == ["elm"]
    assert report.failures[0]["error"].startswith("RecursionError")
    assert sum(report.counts.values()) == 0
    # the pair's other two values are kept
    assert np.isnan(read_matrix_csv(tmp_path / "distances_elm.csv").values[0, 1])
    for method in ("mmb", "greedy"):
        assert np.isfinite(read_matrix_csv(tmp_path / f"distances_{method}.csv").values[0, 1])


def test_cells_take_their_seconds_from_the_records(monkeypatch, tmp_path):
    """The pair context's clock ticks by one on each read and laps once per
    record, so every cell reads one tick: the harness times no call again
    and charges nothing extra to mmb."""
    ticks = itertools.count()
    monkeypatch.setattr(methods, "perf_counter", lambda: float(next(ticks)))
    report = cmd_compare(_example_files(1), tmp_path)
    assert report.mean_wall == {"elm": 1.0, "mmb": 1.0, "greedy": 1.0}
    corpus = load_corpus(_example_files(1) + _example_files(3))
    for method in ("elm", "mmb", "greedy"):
        assert distance_matrix(method, corpus, workers=1)[2] == 6.0


class _Abort(BaseException):
    """Escapes the per-pair failure handling."""


def test_serial_runs_leave_no_trees_behind(small_ensemble, monkeypatch, tmp_path):
    distance_matrix("elm", load_corpus(small_ensemble), workers=1)
    assert "trees" not in harness._POOL_STATE
    cmd_compare(small_ensemble, tmp_path / "ok", workers=1)
    assert "trees" not in harness._POOL_STATE
    monkeypatch.setitem(harness.PAIR_STEPS, "mmb", _overflows)
    report = cmd_compare(small_ensemble, tmp_path / "failed", workers=1)
    assert {f["method"] for f in report.failures} == {"mmb"}
    assert "trees" not in harness._POOL_STATE

    def aborts(*args):
        raise _Abort

    monkeypatch.setitem(harness.PAIR_STEPS, "elm", aborts)
    with pytest.raises(_Abort):
        cmd_compare(small_ensemble, tmp_path / "aborted", workers=1)
    assert "trees" not in harness._POOL_STATE


def _write_mixed_corpus(root):
    # the disjoint-label and leafless members plus a PARTIAL pair
    # (example1_a/b) and a FULL pair (example1_a and its copy)
    _write_compare_corpus_with_leafless_member(root)
    shutil.copy(FIXTURES / "example1_a.mtree", root / "example1_c.mtree")
    shutil.copy(FIXTURES / "example1_b.mtree", root / "example1_b.mtree")
    return sorted(str(p) for p in root.glob("*.mtree"))


def test_compare_outputs_equal_matrix_runs_for_any_worker_count(tmp_path):
    (tmp_path / "in").mkdir()
    inputs = _write_mixed_corpus(tmp_path / "in")
    trees = [t for _, t in load_corpus(inputs)]
    cases = {
        harness.classify_agreement(trees[i], trees[j]).case
        for i, j in harness._pairs(len(trees))
    }
    assert cases == {Agreement.FULL, Agreement.PARTIAL, Agreement.DISAGREEMENT}
    reports = []
    for workers in (1, 2):
        out = tmp_path / f"compare_w{workers}"
        cmd_compare(inputs, out, workers=workers, heatmap=True)
        report = json.loads((out / "report.json").read_text())
        del report["mean_wall_seconds"]
        reports.append(report)
        for method in ("elm", "mmb", "greedy"):
            ref = tmp_path / f"matrix_{method}"
            if not ref.exists():
                cmd_matrix(method, inputs, ref, heatmap=True)
            for ext in ("csv", "ppm"):
                name = f"distances_{method}.{ext}"
                assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    assert reports[0] == reports[1]
    assert len(reports[0]["failures"]) == 8  # elm and mmb on single's four pairs


def test_compare_on_a_spawned_pool_writes_the_serial_outputs(monkeypatch, tmp_path):
    """A spawned worker inherits nothing from the parent, so the corpus
    reaches it only through the pool's pickle of the initializer's
    arguments; its CSVs and report counts equal the serial run's."""
    (tmp_path / "in").mkdir()
    inputs = _write_mixed_corpus(tmp_path / "in")
    serial = cmd_compare(inputs, tmp_path / "w1", workers=1)
    spawned = functools.partial(
        harness.ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")
    )
    monkeypatch.setattr(harness, "ProcessPoolExecutor", spawned)
    pooled = cmd_compare(inputs, tmp_path / "w2", workers=2)
    assert "trees" not in harness._POOL_STATE
    for field in ("counts", "disagreement_counts", "failures", "pair_count"):
        assert getattr(pooled, field) == getattr(serial, field), field
    for method in ("elm", "mmb", "greedy"):
        name = f"distances_{method}.csv"
        assert (tmp_path / "w2" / name).read_bytes() == (tmp_path / "w1" / name).read_bytes()


def test_compare_report_on_mixed_corpus(tmp_path):
    (tmp_path / "in").mkdir()
    report = cmd_compare(_write_mixed_corpus(tmp_path / "in"), tmp_path / "out")
    # FULL example1_a/c ties; both PARTIAL example1 pairs: greedy 2 > 0.5
    assert report.counts == {
        "G>M1": 2, "M1>G": 0, "G>M2": 2, "M2>G": 0, "ties_m1": 1, "ties_m2": 1
    }
    # seven disjoint-label pairs, the four with the leafless member failed
    assert report.disagreement_counts == {"M1>M2": 0, "M2>M1": 1, "ties": 2}
    assert (report.greedy_pair_count, report.disagreement_pair_count) == (3, 7)
    assert report.averages == {"avg_vertices": 4.6, "avg_leaves": 2.6, "avg_unknown_gap": 2.0}


def test_compare_classifies_each_pair_once(small_ensemble, monkeypatch, tmp_path):
    calls = []

    def counted(a, b):
        calls.append((id(a), id(b)))
        return core.classify_agreement(a, b)

    for module in (methods, harness):
        monkeypatch.setattr(module, "classify_agreement", counted)
    report = cmd_compare(small_ensemble, tmp_path, workers=1)
    assert len(calls) == len(set(calls)) == report.pair_count


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records the worker count it was
    asked for and maps in this process."""

    started: list[int] = []

    def __init__(self, *, max_workers, initializer, initargs):
        self.started.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        harness._POOL_STATE.pop("trees", None)

    def map(self, fn, tasks, chunksize):
        return map(fn, tasks)


def test_pool_starts_no_more_workers_than_pairs(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "started", [])
    inputs = _write_compare_corpus_with_leafless_member(tmp_path)  # 3 pairs
    serial = cmd_compare(inputs, tmp_path / "w1", workers=1)
    assert _SerialPool.started == []
    wide = cmd_compare(inputs, tmp_path / "w64", workers=64)
    corpus = load_corpus(inputs)
    matrix, _, _ = distance_matrix("mmb", corpus, workers=2)
    assert _SerialPool.started == [3, 2]
    assert (wide.counts, wide.failures) == (serial.counts, serial.failures)
    assert np.array_equal(
        matrix.values, distance_matrix("mmb", corpus, workers=1)[0].values, equal_nan=True
    )


def test_compare_solves_each_matching_once(small_ensemble, monkeypatch, tmp_path):
    trees = [t for _, t in load_corpus(small_ensemble)]
    pairs = harness._pairs(len(trees))
    assert all(
        harness.classify_agreement(trees[i], trees[j]).case is Agreement.PARTIAL
        for i, j in pairs
    )
    current = {}
    solved = []  # (method, pair, cost bytes)

    def tagged(method, step):
        def run(pair):
            current["at"] = (method, (id(pair.a), id(pair.b)))
            return step(pair)

        return run

    for method, step in list(harness.PAIR_STEPS.items()):
        monkeypatch.setitem(harness.PAIR_STEPS, method, tagged(method, step))
    solve = assignment.solve

    def counted(cost):
        solved.append((*current["at"], np.asarray(cost).tobytes()))
        return solve(cost)

    monkeypatch.setattr(assignment, "solve", counted)
    cmd_compare(small_ensemble, tmp_path, workers=1)
    per_pair = Counter(pair for _, pair, _ in solved)
    assert solved and max(per_pair.values()) <= 2
    by_mmb = {(pair, cost) for method, pair, cost in solved if method == "mmb"}
    assert not [
        1 for method, pair, cost in solved if method == "greedy" and (pair, cost) in by_mmb
    ]


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


def test_cli_dist_oracle_golden_printout(capsys):
    """The oracle prints its minimising configuration like any estimator:
    0.5 is half the trimmed leaf 3's delta of 1.0."""
    assert main(["dist", "oracle", *_example_files(1)]) == 0
    *lines, wall = capsys.readouterr().out.splitlines()
    assert lines == [
        "method: oracle",
        "distance: 0.5",
        "epsilon: 0.0",
        "max_delta: 1.0",
        "deltas: 3=1.0",
        "matching: 4-5",
        "trimmed: 3",
        "unmatched: a=[3] b=[]",
        "relabeling: 5->4",
    ]
    assert wall.startswith("wall_time_s: ")


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


def test_cli_label_beyond_int64_is_exit_2(tmp_path, capsys):
    # greedy would grant the big label and put it in an int64 array
    big = tmp_path / "big.mtree"
    big.write_text(
        "mtree 1\nv 0 2.0\nv 1 0.0 1\nv 2 0.0 2\nv 3 0.5 99999999999999999999\n"
        "e 1 0\ne 2 0\ne 3 0\n"
    )
    small = tmp_path / "small.mtree"
    small.write_text("mtree 1\nv 0 2.0\nv 1 0.0 1\nv 2 0.0 2\ne 1 0\ne 2 0\n")
    assert main(["dist", "greedy", str(big), str(small)]) == 2
    err = capsys.readouterr().err
    assert "ValidationError: label 99999999999999999999 is not an integer" in err
    assert main(["compare", str(big), str(small), "--out", str(tmp_path / "o")]) == 2


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


def test_cli_gen_refuses_preset_with_max_vertices(tmp_path, capsys):
    out = tmp_path / "trees"
    assert main(["gen", "--preset", "random_50", "--max-vertices", "500",
                 "--out", str(out)]) == 2
    assert "not both" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("workers", [0, -3])
def test_library_rejects_worker_count_below_one(workers, small_ensemble, tmp_path):
    corpus = load_corpus(small_ensemble)
    with pytest.raises(errors.ValidationError, match=f"worker count must be >= 1, got {workers}"):
        distance_matrix("elm", corpus, workers=workers)
    with pytest.raises(errors.ValidationError, match=f"worker count must be >= 1, got {workers}"):
        cmd_compare(small_ensemble, tmp_path / "out", workers=workers)
    assert not (tmp_path / "out").exists()


def test_cli_rejects_non_integer_mt_workers(small_ensemble, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MT_WORKERS", "two")
    assert main(["matrix", *small_ensemble, "--out", str(tmp_path)]) == 2
    assert "MT_WORKERS='two' is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1_0", "\u0662", "\uff12"])
def test_cli_rejects_mt_workers_beyond_ascii(value, small_ensemble, tmp_path, monkeypatch, capsys):
    # Python's int() takes 1_0 and the Arabic-Indic and full-width digit two
    monkeypatch.setenv("MT_WORKERS", value)
    assert main(["matrix", *small_ensemble, "--out", str(tmp_path)]) == 2
    assert f"MT_WORKERS={value!r} is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value, kind",
    [("--count", "\u0662", "int"), ("--count", "1_0", "int"), ("--seed", "\uff11", "int"),
     ("--max-vertices", "1_3", "int"), ("--label-fraction", "0.\u0665", "float"),
     ("--label-fraction", "0.2_5", "float")],
)
def test_cli_numbers_are_ascii_without_underscores(option, value, kind, tmp_path, capsys):
    argv = ["gen", "--max-vertices", "9", "--out", str(tmp_path / "trees"), option, value]
    assert main(argv) == 1
    assert f"invalid {kind} value: {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "trees").exists()
    for bad in ("\u0662", "2_0"):
        assert main(["matrix", *_example_files(1), "--out", str(tmp_path), "--workers", bad]) == 1
        assert main(["bench", *_example_files(1), "--repeat", bad]) == 1


def test_compare_and_bench_refuse_bad_arguments(tmp_path):
    with pytest.raises(errors.ValidationError, match="at least two"):
        cmd_compare(_example_files(1)[:1], tmp_path)
    with pytest.raises(errors.ValidationError, match="repeat"):
        cmd_bench(_example_files(1), repeat=0)


def test_cli_bench(tmp_path, capsys):
    assert main(["bench", *_example_files(1), "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    assert "elm:" in out and "greedy:" in out


def test_cli_bench_needs_two_inputs(capsys):
    # one tree has no pair to time; matrix and compare refuse it the same way
    assert main(["bench", _example_files(1)[0]]) == 2
    assert "need at least two input trees" in capsys.readouterr().err
