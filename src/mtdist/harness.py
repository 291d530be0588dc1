"""Batch orchestration: ensemble generation, distance matrices, method
comparison and timing.

Pairs of corpus members are always evaluated once, in canonical order
(members sorted lexicographically by id, pair (i, j) with i < j), and the
value is mirrored across the diagonal, so emitted matrices are exactly
symmetric with a zero diagonal.  Per-pair failures (for instance the
baseline refusing a disjoint-label pair) degrade to NaN cells instead of
aborting a long batch; callers receive the failure list.

Pair evaluations are pure and independent, so they can fan out to a pool of
at most one process per pair; results come back in pair order, which makes
output byte-identical for any worker count.  ``distance_matrix`` and
``cmd_compare`` share one pair-mapping helper, so a comparison is one pass
over the pairs with at most one pool.  Its pair record holds the cells of
``mmb``, ``greedy`` and ``elm``, run in turn on one pair context, and the
pair's agreement case, from which the report is tallied.  Every ``METHODS``
entry, the oracle's included, is a ``methods`` estimator whose record comes
from ``_Pair.result``, so a cell's seconds are its record's ``wall_time``;
nothing here times a call again.  ``cmd_bench`` times whole serial matrix
runs (parsing excluded).
"""

from __future__ import annotations

import functools
import json
import os
import platform
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from . import errors, methods, synth
from .core import Agreement, LabeledMergeTree, classify_agreement  # noqa: F401 re-export
from .io import (
    TIE_TOL,
    DistanceMatrix,
    read_mtree_file,
    write_comparison_heatmap,
    write_heatmap,
    write_matrix_csv,
    write_mtree_file,
)

__all__ = [
    "PRESETS",
    "METHODS",
    "ComparisonReport",
    "load_corpus",
    "distance_matrix",
    "cmd_gen",
    "cmd_dist",
    "cmd_matrix",
    "cmd_compare",
    "cmd_bench",
]

PRESETS = {
    "random_50": 50,
    "random_100": 100,
    "random_200": 200,
    "random_500": 500,
}


METHODS: dict[str, Callable[[LabeledMergeTree, LabeledMergeTree], methods.MethodResult]] = {
    "elm": methods.elm_distance,
    "mmb": methods.mmb_distance,
    "greedy": methods.greedy_distance,
    "full": methods.full_agreement_distance,
    "oracle": methods.oracle_distance,
}


def _read_members(ids: Sequence[str], paths: Sequence[str | Path]) -> list[LabeledMergeTree]:
    """Parse member i's file with its ``-1`` placeholder labels rewritten
    into its own range [W * (i + 1), W * (i + 2)), W = 10^8, so rewritten
    unknowns never collide with each other.  A label in member i's range
    that another member also carries would silently become a shared
    "known" label, so it raises ValidationError."""
    window = synth.UNKNOWN_LABEL_BASE * 100
    trees = []
    holders: dict[int, list[int]] = {}
    for index, path in enumerate(paths):
        lt = read_mtree_file(path, unknown_label_base=window * (index + 1))
        trees.append(lt)
        for label, _ in lt.labels.items():
            if label >= window:
                holders.setdefault(label, []).append(index)
    for label, held in holders.items():
        owner = label // window - 1
        if len(held) > 1 and owner in held:
            other = next(i for i in held if i != owner)
            raise errors.ValidationError(
                f"label {label} of {ids[other]} falls in the placeholder "
                f"range of {ids[owner]}, which also carries it"
            )
    return trees


def load_corpus(paths: Sequence[str | Path]) -> list[tuple[str, LabeledMergeTree]]:
    """Parse at least two files, sorted by member id (file stem); ids must be
    unique.  Member i's placeholders are rewritten as in :func:`_read_members`."""
    if len(paths) < 2:
        raise errors.ValidationError("need at least two input trees")
    entries = sorted((Path(p).stem, Path(p)) for p in paths)
    ids = [mid for mid, _ in entries]
    if len(set(ids)) != len(ids):
        raise errors.ValidationError("duplicate member ids (file stems) in input")
    return list(zip(ids, _read_members(ids, [path for _, path in entries])))


# -- pair evaluation ----------------------------------------------------------

# The corpus, set by _pool_init for the serial loop and each worker (a forked
# worker inherits the parent's trees, a spawned one unpickles the pool's copy)
# and cleared on the way out, so trees and leaf tables do not outlive a call.
_POOL_STATE: dict = {}

# The estimators the comparison runs on one shared pair context, in this
# order: greedy reuses mmb's matching, and elm reuses it when it trims
# nothing, so the pair's set-up and the matching are in mmb's wall time.
PAIR_STEPS: dict[str, Callable[[methods._Pair], methods.MethodResult]] = {
    "mmb": methods._mmb,
    "greedy": methods._greedy,
    "elm": methods._elm,
}


def _pool_init(trees: list[LabeledMergeTree]) -> None:
    _POOL_STATE["trees"] = trees


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _map_pairs(fn, trees: list[LabeledMergeTree], workers: int) -> list:
    """``fn((i, j))`` for every pair i < j of ``trees`` in canonical order,
    serially or on a pool of at most ``workers`` processes, never more than
    there are pairs; ``fn`` reads the trees from ``_POOL_STATE``."""
    workers = errors.integer(workers, "worker count")
    if workers < 1:
        raise errors.ValidationError(f"worker count must be >= 1, got {workers}")
    tasks = _pairs(len(trees))
    # the pool forks all its workers at once, so one per pair at most
    workers = min(workers, len(tasks))
    _pool_init(trees)
    try:
        if workers > 1:
            # chunks of up to 8 pairs, but about four per worker on a small
            # corpus, so its few pairs still spread over the workers
            chunk = max(1, min(8, len(tasks) // (4 * workers)))
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_pool_init, initargs=(trees,)
            ) as pool:
                return list(pool.map(fn, tasks, chunksize=chunk))
        return [fn(task) for task in tasks]
    finally:
        _POOL_STATE.pop("trees", None)


def _cell(step: Callable[..., methods.MethodResult], *args) -> tuple:
    """``step(*args)`` as a (distance, wall_time, None) cell; if it raises,
    (nan, 0.0, error text), so one failed pair cannot abort the batch."""
    try:
        r = step(*args)
    except Exception as exc:
        return float("nan"), 0.0, f"{type(exc).__name__}: {exc}"
    return r.distance, r.wall_time, None


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise errors.ValidationError(f"unknown method {method!r}")


def _method_pair(method: str, task: tuple[int, int]) -> tuple:
    i, j = task
    trees = _POOL_STATE["trees"]
    return _cell(METHODS[method], trees[i], trees[j])


def _compare_pair(task: tuple[int, int]) -> tuple[dict[str, tuple], Agreement, int]:
    """The pair record: a cell per ``PAIR_STEPS`` estimator, all run on one
    shared pair context (a method that raises loses only its own cell), with
    the pair's agreement case and how many more unknown labels its pivot
    has than the other tree."""
    i, j = task
    trees = _POOL_STATE["trees"]
    pair = methods._Pair(trees[i], trees[j])
    cells = {method: _cell(step, pair) for method, step in PAIR_STEPS.items()}
    return cells, pair.info.case, len(pair.piv_unknown) - len(pair.oth_unknown)


def _assemble(
    ids: Sequence[str], cells: Sequence[tuple]
) -> tuple[DistanceMatrix, list[tuple[str, str, str]], float]:
    """Mirror per-pair (value, wall, error) cells into a matrix; returns it
    with the failures and the summed method seconds."""
    n = len(ids)
    values = np.zeros((n, n))
    failures: list[tuple[str, str, str]] = []
    total = 0.0
    for (i, j), (value, wall, err) in zip(_pairs(n), cells):
        values[i, j] = values[j, i] = value
        total += wall
        if err is not None:
            failures.append((ids[i], ids[j], err))
    return DistanceMatrix(tuple(ids), values), failures, total


def distance_matrix(
    method: str,
    corpus: Sequence[tuple[str, LabeledMergeTree]],
    *,
    workers: int = 1,
) -> tuple[DistanceMatrix, list[tuple[str, str, str]], float]:
    """All unordered pairs once; returns (matrix, failures, method_seconds).

    ``method_seconds`` sums the per-pair method execution times (parse and
    scheduling overhead excluded).
    """
    _check_method(method)
    trees = [t for _, t in corpus]
    cells = _map_pairs(functools.partial(_method_pair, method), trees, workers)
    return _assemble([mid for mid, _ in corpus], cells)


# -- subcommands ---------------------------------------------------------------


def cmd_gen(
    out_dir: str | Path,
    *,
    preset: str | None = None,
    max_vertices: int | None = None,
    count: int = 20,
    label_fraction: float = 0.5,
    seed: int = 0,
) -> list[Path]:
    """Generate an ensemble, write one mtree file per member plus a manifest."""
    if preset is not None:
        if max_vertices is not None:
            raise errors.ValidationError("give a preset or a max vertex count, not both")
        if preset not in PRESETS:
            raise errors.ValidationError(
                f"unknown preset {preset!r}; pick one of {sorted(PRESETS)}"
            )
        max_vertices = PRESETS[preset]
    if max_vertices is None:
        raise errors.ValidationError("need a preset or an explicit max vertex count")
    spec = synth.EnsembleSpec(
        max_vertices=max_vertices,
        ensemble_size=count,
        label_fraction=label_fraction,
        seed=seed,
    )
    out = Path(out_dir)
    files = [out / f"member_{i:02d}.mtree" for i in range(count)]
    stale = sorted(set(out.glob("member_*.mtree")).difference(files))
    if stale:  # the manifest would not list it, but a glob would find it
        raise errors.ValidationError(f"{stale[0]} is not one of the {count} members; remove it")
    members = synth.generate_ensemble(
        spec, schedule_kind="preset" if preset else "default"
    )
    out.mkdir(parents=True, exist_ok=True)
    for member, path in zip(members, files):
        write_mtree_file(member, path)
    manifest = {
        "format": "mtree 1",
        "preset": preset,
        "max_vertices": spec.max_vertices,
        "ensemble_size": spec.ensemble_size,
        "label_fraction": label_fraction,
        "seed": spec.seed,
        "files": [p.name for p in files],
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return files


def cmd_dist(method: str, file_a: str | Path, file_b: str | Path) -> methods.MethodResult:
    """Distance between two tree files with full provenance."""
    _check_method(method)
    a, b = _read_members([str(file_a), str(file_b)], [file_a, file_b])
    return METHODS[method](a, b)


def format_result(method: str, res: methods.MethodResult) -> str:
    lines = [
        f"method: {method}",
        f"distance: {res.distance!r}",
        f"epsilon: {res.epsilon!r}",
        f"max_delta: {res.max_delta!r}",
    ]
    if res.deltas:
        lines.append(
            "deltas: " + " ".join(f"{l}={v!r}" for l, v in sorted(res.deltas.items()))
        )
    if res.matching.pairs:
        lines.append(
            "matching: " + " ".join(f"{la}-{lb}" for la, lb in res.matching.pairs)
        )
    if res.trimmed:
        lines.append("trimmed: " + " ".join(str(l) for l in sorted(res.trimmed)))
    if res.matching.unmatched_a or res.matching.unmatched_b:
        lines.append(
            "unmatched: a=["
            + " ".join(map(str, res.matching.unmatched_a))
            + "] b=["
            + " ".join(map(str, res.matching.unmatched_b))
            + "]"
        )
    if res.relabeling:
        lines.append(
            "relabeling: "
            + " ".join(f"{lb}->{la}" for lb, la in sorted(res.relabeling.items()))
        )
    if res.assigned_labels:
        lines.append(
            "assigned: "
            + " ".join(f"{l}@{anchor}" for l, anchor in sorted(res.assigned_labels.items()))
        )
    lines.append(f"wall_time_s: {res.wall_time:.6f}")
    return "\n".join(lines)


def cmd_matrix(
    method: str,
    inputs: Sequence[str | Path],
    out_dir: str | Path,
    *,
    workers: int = 1,
    heatmap: bool = False,
) -> tuple[DistanceMatrix, list[tuple[str, str, str]], float]:
    """Distance matrix over a corpus; CSV (and optional heatmap) on disk."""
    _check_method(method)  # before any file is parsed
    corpus = load_corpus(inputs)
    matrix, failures, method_seconds = distance_matrix(method, corpus, workers=workers)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix_csv(matrix, out / f"distances_{method}.csv")
    if heatmap:
        write_heatmap(matrix, out / f"distances_{method}.ppm")
    return matrix, failures, method_seconds


@dataclass
class ComparisonReport:
    """Per-pair method distances plus the aggregate comparison columns."""

    member_ids: tuple[str, ...]
    pair_count: int
    greedy_pair_count: int
    disagreement_pair_count: int
    counts: dict[str, int]
    percentages: dict[str, float]
    averages: dict[str, float]
    mean_wall: dict[str, float]
    disagreement_counts: dict[str, int] = field(default_factory=dict)
    failures: list[dict[str, str]] = field(default_factory=list)

    def to_json(self) -> str:
        payload = asdict(self)
        payload["mean_wall_seconds"] = payload.pop("mean_wall")
        return json.dumps(payload, indent=2, sort_keys=True)

    def summary(self) -> str:
        pct = self.percentages
        lines = [
            f"pairs: {self.pair_count} "
            f"(greedy-comparable {self.greedy_pair_count}, "
            f"disjoint-label {self.disagreement_pair_count})",
            f"avg vertices: {self.averages['avg_vertices']:.2f}",
            f"avg |u1-u2|: {self.averages['avg_unknown_gap']:.2f}",
            "counts (% of greedy-comparable pairs): "
            + " ".join(
                f"{k}={pct[k]:.2f}" for k in ("G>M1", "M1>G", "G>M2", "M2>G")
            ),
            "mean method seconds per pair: "
            + " ".join(f"{m}={self.mean_wall[m]:.6f}" for m in sorted(self.mean_wall)),
        ]
        return "\n".join(lines)


def _gt(x: float, y: float) -> bool:
    return x > y + TIE_TOL * max(1.0, abs(y))


def _tally(counts: dict[str, int], x: float, y: float, more: str, less: str, tie: str) -> None:
    """Count x against y under ``more``, ``less`` or ``tie``."""
    counts[more if _gt(x, y) else less if _gt(y, x) else tie] += 1


def cmd_compare(
    inputs: Sequence[str | Path],
    out_dir: str | Path,
    *,
    workers: int = 1,
    heatmap: bool = False,
) -> ComparisonReport:
    """Run all three estimators over a corpus and tabulate who wins where.

    Each pair is evaluated once, into one record (``_compare_pair``) from
    which every count is tallied; its pair context runs ``mmb``, ``greedy``
    and ``elm`` (see ``PAIR_STEPS``), so the CSVs equal three ``cmd_matrix``
    runs.  Always writes per-method CSVs, the two comparison pixmaps, and
    report.json; ``heatmap`` adds per-method grayscale pixmaps.  Pairs with
    disjoint label sets cannot run the baseline; they are compared
    first-vs-second method only and reported separately.  Any other pair a
    method could not compute is listed in ``failures`` and left out of the
    win/tie counts.
    """
    corpus = load_corpus(inputs)
    ids = tuple(mid for mid, _ in corpus)
    trees = [t for _, t in corpus]

    records = _map_pairs(_compare_pair, trees, workers)
    counts = dict.fromkeys(("G>M1", "M1>G", "G>M2", "M2>G", "ties_m1", "ties_m2"), 0)
    dis_counts = dict.fromkeys(("M1>M2", "M2>M1", "ties"), 0)
    n_disjoint = 0
    for cells, case, _ in records:
        disjoint = case is Agreement.DISAGREEMENT
        if disjoint:
            # the baseline's documented refusal: a NaN cell, not a failure
            cells["greedy"] = (*cells["greedy"][:2], None)
            n_disjoint += 1
        if any(err is not None for _, _, err in cells.values()):
            continue
        m1, m2, g = (cells[m][0] for m in ("elm", "mmb", "greedy"))
        if disjoint:
            _tally(dis_counts, m1, m2, "M1>M2", "M2>M1", "ties")
        else:
            _tally(counts, g, m1, "G>M1", "M1>G", "ties_m1")
            _tally(counts, g, m2, "G>M2", "M2>G", "ties_m2")

    matrices: dict[str, DistanceMatrix] = {}
    walls: dict[str, float] = {}
    failures: list[dict[str, str]] = []
    for method in ("elm", "mmb", "greedy"):
        matrices[method], failed, walls[method] = _assemble(
            ids, [cells[method] for cells, _, _ in records]
        )
        failures += [
            {"method": method, "member_a": a, "member_b": b, "error": msg}
            for a, b, msg in failed
        ]

    n_pairs = len(records)
    n_greedy = n_pairs - n_disjoint
    pct = {
        k: (100.0 * counts[k] / n_greedy if n_greedy else 0.0)
        for k in ("G>M1", "M1>G", "G>M2", "M2>G")
    }
    averages = {
        "avg_vertices": float(np.mean([t.tree.n_vertices for t in trees])),
        "avg_leaves": float(np.mean([len(t.tree.leaves) for t in trees])),
        "avg_unknown_gap": float(np.mean([gap for _, _, gap in records])),
    }
    mean_wall = {m: walls[m] / n_pairs for m in walls}

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for method, matrix in matrices.items():
        write_matrix_csv(matrix, out / f"distances_{method}.csv")
        if heatmap:
            write_heatmap(matrix, out / f"distances_{method}.ppm")
    write_comparison_heatmap(
        matrices["elm"], matrices["greedy"], out / "compare_elm_vs_greedy.ppm"
    )
    write_comparison_heatmap(
        matrices["mmb"], matrices["greedy"], out / "compare_mmb_vs_greedy.ppm"
    )
    report = ComparisonReport(
        member_ids=ids,
        pair_count=n_pairs,
        greedy_pair_count=n_greedy,
        disagreement_pair_count=n_disjoint,
        counts=counts,
        percentages=pct,
        averages=averages,
        mean_wall=mean_wall,
        disagreement_counts=dis_counts,
        failures=failures,
    )
    (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    return report


def cmd_bench(
    inputs: Sequence[str | Path],
    *,
    repeat: int = 1,
    out_path: str | Path | None = None,
) -> dict:
    """Serial timing of full distance-matrix computations per method.

    Pairs a method cannot handle surface as NaN cells; the clock covers
    method execution only, never parsing.
    """
    repeat = errors.integer(repeat, "repeat")
    if repeat < 1:
        raise errors.ValidationError("repeat must be >= 1")
    corpus = load_corpus(inputs)
    table: dict[str, dict[str, float]] = {}
    for method in ("elm", "mmb", "greedy"):
        runs = []
        for _ in range(repeat):
            started = perf_counter()
            distance_matrix(method, corpus, workers=1)
            runs.append(perf_counter() - started)
        table[method] = {
            "mean_s": statistics.fmean(runs),
            "stdev_s": statistics.stdev(runs) if len(runs) > 1 else 0.0,
            "runs": len(runs),
        }
    payload = {
        "members": len(corpus),
        "pairs": len(corpus) * (len(corpus) - 1) // 2,
        "repeat": repeat,
        "timings": table,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "processor": platform.processor() or "unknown",
            "cpu_count": os.cpu_count(),
        },
    }
    if out_path is not None:
        Path(out_path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return payload
