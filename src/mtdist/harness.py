"""Batch orchestration: ensemble generation, distance matrices, method
comparison and timing.

Pairs of corpus members are always evaluated once, in canonical order
(members sorted lexicographically by id, pair (i, j) with i < j), and the
value is mirrored across the diagonal, so emitted matrices are exactly
symmetric with a zero diagonal.  Per-pair failures (for instance the
baseline refusing a disjoint-label pair) degrade to NaN cells instead of
aborting a long batch; callers receive the failure list.

Pair evaluations are pure and independent, so they can fan out to a process
pool; results are keyed by pair index, which makes output byte-identical for
any worker count.  Timing runs force serial execution and measure method
execution only (parsing excluded).
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from . import errors, methods, synth
from .core import Agreement, LabeledMergeTree, classify_agreement
from .io import (
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

_COMPARE_TOL = 1e-9


def _oracle_result(a: LabeledMergeTree, b: LabeledMergeTree) -> methods.MethodResult:
    start = perf_counter()
    value = methods.oracle_min_objective(a, b)
    empty = methods.LabeledMatrix((), (), np.zeros((0, 0)))
    return methods.MethodResult(
        distance=value,
        epsilon=float("nan"),
        deltas={},
        matching=methods.Matching(()),
        relabeling={},
        trimmed=frozenset(),
        induced_a=empty,
        induced_b=empty,
        wall_time=perf_counter() - start,
    )


METHODS: dict[str, Callable[[LabeledMergeTree, LabeledMergeTree], methods.MethodResult]] = {
    "elm": methods.elm_distance,
    "mmb": methods.mmb_distance,
    "greedy": methods.greedy_distance,
    "full": methods.full_agreement_distance,
    "oracle": _oracle_result,
}


def default_workers() -> int:
    env = os.environ.get("MT_WORKERS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise errors.ValidationError(f"MT_WORKERS={env!r} is not an integer")
    return 1


def load_corpus(paths: Sequence[str | Path]) -> list[tuple[str, LabeledMergeTree]]:
    """Parse files, sorted by member id (file stem); ids must be unique.

    Member i rewrites its ``-1`` placeholder labels into its own range
    [W * (i + 1), W * (i + 2)) with W = 10^8, so rewritten unknowns never
    collide with each other.  A label in member i's range that another
    member also carries would silently become a shared "known" label, so it
    raises ValidationError.
    """
    entries = sorted((Path(p).stem, Path(p)) for p in paths)
    ids = [mid for mid, _ in entries]
    if len(set(ids)) != len(ids):
        raise errors.ValidationError("duplicate member ids (file stems) in input")
    window = synth.UNKNOWN_LABEL_BASE * 100
    corpus = []
    holders: dict[int, list[int]] = {}
    for index, (mid, path) in enumerate(entries):
        lt = read_mtree_file(path, unknown_label_base=window * (index + 1))
        corpus.append((mid, lt))
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
    return corpus


# -- parallel pair evaluation -------------------------------------------------

_POOL_STATE: dict = {}


def _pool_init(blob: bytes) -> None:
    _POOL_STATE["trees"] = pickle.loads(blob)


def _pool_pair(task):
    method_key, i, j = task
    trees = _POOL_STATE["trees"]
    try:
        res = METHODS[method_key](trees[i], trees[j])
        return i, j, res.distance, res.wall_time, None
    except Exception as exc:  # one failed pair must not abort the batch
        return i, j, float("nan"), 0.0, f"{type(exc).__name__}: {exc}"


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
    ids = [mid for mid, _ in corpus]
    trees = [t for _, t in corpus]
    n = len(ids)
    values = np.zeros((n, n))
    tasks = [(method, i, j) for i in range(n) for j in range(i + 1, n)]
    failures: list[tuple[str, str, str]] = []
    total = 0.0
    if workers > 1 and len(tasks) > 1:
        blob = pickle.dumps(trees)
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init, initargs=(blob,)
        ) as pool:
            results = list(pool.map(_pool_pair, tasks, chunksize=8))
    else:
        _POOL_STATE["trees"] = trees
        results = [_pool_pair(t) for t in tasks]
    for i, j, value, wall, err in results:
        values[i, j] = values[j, i] = value
        total += wall
        if err is not None:
            failures.append((ids[i], ids[j], err))
    return DistanceMatrix(tuple(ids), values), failures, total


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
    members = synth.generate_ensemble(
        spec, schedule_kind="preset" if preset else "default"
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for i, member in enumerate(members):
        path = out / f"member_{i:02d}.mtree"
        write_mtree_file(member, path)
        files.append(path)
    manifest = {
        "format": "mtree 1",
        "preset": preset,
        "max_vertices": max_vertices,
        "ensemble_size": count,
        "label_fraction": label_fraction,
        "seed": seed,
        "files": [p.name for p in files],
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return files


def cmd_dist(method: str, file_a: str | Path, file_b: str | Path) -> methods.MethodResult:
    """Distance between two tree files with full provenance."""
    if method not in METHODS:
        raise errors.ValidationError(f"unknown method {method!r}")
    a = read_mtree_file(file_a, unknown_label_base=synth.UNKNOWN_LABEL_BASE * 100)
    b = read_mtree_file(file_b, unknown_label_base=synth.UNKNOWN_LABEL_BASE * 200)
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
    if len(inputs) < 2:
        raise errors.ValidationError("need at least two input trees")
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
        payload = {
            "member_ids": list(self.member_ids),
            "pair_count": self.pair_count,
            "greedy_pair_count": self.greedy_pair_count,
            "disagreement_pair_count": self.disagreement_pair_count,
            "counts": self.counts,
            "percentages": self.percentages,
            "averages": self.averages,
            "mean_wall_seconds": self.mean_wall,
            "disagreement_counts": self.disagreement_counts,
            "failures": self.failures,
        }
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
    return x > y + _COMPARE_TOL * max(1.0, abs(y))


def cmd_compare(
    inputs: Sequence[str | Path],
    out_dir: str | Path,
    *,
    workers: int = 1,
    heatmap: bool = False,
) -> ComparisonReport:
    """Run all three estimators over a corpus and tabulate who wins where.

    Always writes per-method CSVs, the two comparison pixmaps, and
    report.json; ``heatmap`` adds per-method grayscale pixmaps.  Pairs with
    disjoint label sets cannot run the baseline; they are compared
    first-vs-second method only and reported separately.  Any other pair a
    method could not compute is listed in ``failures`` and left out of the
    win/tie counts.
    """
    if len(inputs) < 2:
        raise errors.ValidationError("need at least two input trees")
    corpus = load_corpus(inputs)
    ids = tuple(mid for mid, _ in corpus)
    trees = [t for _, t in corpus]
    n = len(ids)

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    infos = [classify_agreement(trees[i], trees[j]) for i, j in pairs]
    greedy_ok = [
        p for p, info in zip(pairs, infos) if info.case is not Agreement.DISAGREEMENT
    ]
    disjoint = [
        p for p, info in zip(pairs, infos) if info.case is Agreement.DISAGREEMENT
    ]
    disjoint_ids = {(ids[i], ids[j]) for i, j in disjoint}

    matrices: dict[str, DistanceMatrix] = {}
    walls: dict[str, float] = {}
    failures: list[dict[str, str]] = []
    for method in ("elm", "mmb", "greedy"):
        matrix, failed, seconds = distance_matrix(method, corpus, workers=workers)
        matrices[method] = matrix
        walls[method] = seconds
        failures += [
            {"method": method, "member_a": a, "member_b": b, "error": msg}
            for a, b, msg in failed
            # the baseline's documented refusal of disjoint-label pairs
            if not (method == "greedy" and (a, b) in disjoint_ids)
        ]
    failed_pairs = {(f["member_a"], f["member_b"]) for f in failures}

    counts = {"G>M1": 0, "M1>G": 0, "G>M2": 0, "M2>G": 0, "ties_m1": 0, "ties_m2": 0}
    for i, j in greedy_ok:
        if (ids[i], ids[j]) in failed_pairs:
            continue
        g = matrices["greedy"].values[i, j]
        m1 = matrices["elm"].values[i, j]
        m2 = matrices["mmb"].values[i, j]
        if _gt(g, m1):
            counts["G>M1"] += 1
        elif _gt(m1, g):
            counts["M1>G"] += 1
        else:
            counts["ties_m1"] += 1
        if _gt(g, m2):
            counts["G>M2"] += 1
        elif _gt(m2, g):
            counts["M2>G"] += 1
        else:
            counts["ties_m2"] += 1
    dis_counts = {"M1>M2": 0, "M2>M1": 0, "ties": 0}
    for i, j in disjoint:
        if (ids[i], ids[j]) in failed_pairs:
            continue
        m1 = matrices["elm"].values[i, j]
        m2 = matrices["mmb"].values[i, j]
        if _gt(m1, m2):
            dis_counts["M1>M2"] += 1
        elif _gt(m2, m1):
            dis_counts["M2>M1"] += 1
        else:
            dis_counts["ties"] += 1

    n_greedy = len(greedy_ok)
    pct = {
        k: (100.0 * counts[k] / n_greedy if n_greedy else 0.0)
        for k in ("G>M1", "M1>G", "G>M2", "M2>G")
    }
    unknown_gaps = [abs(info.n_unknown_a - info.n_unknown_b) for info in infos]
    averages = {
        "avg_vertices": float(np.mean([t.tree.n_vertices for t in trees])),
        "avg_leaves": float(np.mean([len(t.tree.leaves) for t in trees])),
        "avg_unknown_gap": float(np.mean(unknown_gaps)) if unknown_gaps else 0.0,
    }
    n_pairs = len(pairs)
    mean_wall = {m: (walls[m] / n_pairs if n_pairs else 0.0) for m in walls}

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
        disagreement_pair_count=len(disjoint),
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
