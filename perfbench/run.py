#!/usr/bin/env python3
"""mtdist benchmark: end-to-end wall times with a correctness gate, and an
outside-in per-layer trace.

    python3 perfbench/run.py --workload partial_200 --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Every input is generated from ``--seed``.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when any correctness check fails.  Scratch files and results go to
``.perfbench/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"

# Each workload is a series of 20-member ensembles written by ``harness.cmd_gen``.
WORKLOADS = {
    # kernel-heavy: half the leaves are one-sided, so rectangles are large
    "partial_200": {"preset": "random_200", "label_fraction": 0.5},
    # every leaf shares a label: small unknown sets, LCA work dominates
    "known_500": {"max_vertices": 500, "label_fraction": 1.0},
    # no shared labels: disagreement branch, greedy refuses every pair
    "disjoint_100": {"preset": "random_100", "label_fraction": 0.0},
}
METHODS = ("elm", "mmb", "greedy")
# A corpus's cost depends on its seed, mostly through its members rather
# than its ensemble.  So each 20-member ensemble is split into GROUPS corpora
# of 4 members, corpus q holding members q, q+5, q+10 and q+15 (one from
# each quarter of the perturbation schedule), a run times every operation
# once on every corpus, and a metric is the mean over the run's corpora.
MEMBERS = 20
GROUPS = 5
# Seconds all operations take on one ensemble, so that --seconds buys
# round(seconds / this) ensembles.
ENSEMBLE_SECONDS = {"partial_200": 4.4, "known_500": 6.5, "disjoint_100": 3.6}
TRACE_ENSEMBLES = 2
REEVALUATED_PAIRS = 2  # per corpus
# The host also changes speed by up to 40% from one minute to the next, for
# minutes at a time, which no repeat inside a run can average out.  So a
# fixed piece of work that is not mtdist code, the host probe, is timed in
# bursts between the measured operations, and every reported time is scaled
# by PROBE_REFERENCE_S / (the probe's mean time in the run).  The mean, not
# the median: a probe runs either fast or about twice as slow, and an
# operation lasting many probes is slowed by the share of slow moments,
# which the mean follows.  The constant is about the probe's mean on the
# development host, so values read close to wall time there; the raw wall
# times are printed and recorded as well.
PROBE_BURST = 3
PROBE_REFERENCE_S = 5.0e-4

E2E_UNITS = {
    "setup_s": "s",
    "matrix.elm_s": "s",
    "matrix.mmb_s": "s",
    "matrix.greedy_s": "s",
    "compare_s": "s",
    **{f"pair_ms.{m}.{q}": "ms" for m in METHODS for q in ("p50", "p90")},
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "assignment.solve_s": "s",
    "assignment.solve.calls": "count",
    "assignment.solve.cells": "count",
    "assignment.solve.square_cells": "count",
    "assignment.distinct_share": "ratio",
    "core.lca_many_s": "s",
    "core.lca_many.calls": "count",
    "core.lca_many.cells": "count",
    "core.is_leaf.calls": "count",
    "core.inf_norm_diff_s": "s",
    "core.path_distance_many_s": "s",
    "core.classify.calls": "count",
    "core.classify_s": "s",
    "core.index_build_s": "s",
    **{f"methods.{m}_s": "s" for m in METHODS},
    **{f"methods.{m}.self_s": "s" for m in METHODS},
    **{f"methods.{m}.solve_share": "ratio" for m in METHODS},
    **{f"methods.{m}.lca_share": "ratio" for m in METHODS},
    "methods.build_s_matrix_s": "s",
    "methods.unknown_to_known_distances_s": "s",
    "methods.pairwise_leaf_distances_s": "s",
    "methods.pairwise_leaf_distances.calls": "count",
    "io.parse_s": "s",
    "io.parse.calls": "count",
    "io.write_s": "s",
    "synth.generate_s": "s",
    "harness.load_corpus_s": "s",
    "harness.compare.self_s": "s",
    "harness.compare.w2.self_s": "s",
    "harness.pool.payload_bytes": "bytes",
    # The workers=2 compare waits on the second core, which neighbours on a
    # shared host take for tens of seconds at a time; its run-to-run spread
    # (up to 28%) is too wide for an end-to-end bound, so it is reported here.
    "compare.w2_s": "s",
    "harness.parallel_efficiency": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

# Counts that must repeat exactly between two traced passes.
EXACT_COUNTS = (
    "assignment.solve.calls",
    "assignment.solve.cells",
    "assignment.solve.square_cells",
    "assignment.distinct_share",
    "core.lca_many.calls",
    "core.lca_many.cells",
    "core.is_leaf.calls",
    "core.classify.calls",
    "methods.pairwise_leaf_distances.calls",
    "io.parse.calls",
    "harness.pool.payload_bytes",
)

# Spans (or counters) that must record at least one call on the workloads
# whose layer they are meant to show.
ALL = tuple(WORKLOADS)
REQUIRED_SPANS = {
    "assignment.solve": ("partial_200", "disjoint_100"),
    "core.lca_many": ("known_500",),
    "core.is_leaf": ("known_500",),
    "core.inf_norm_diff": ("known_500",),
    "core.path_distance_many": ("known_500",),
    "core.classify": ALL,
    "core.index_build": ("known_500",),
    "methods.elm": ALL,
    "methods.mmb": ALL,
    "methods.greedy": ("partial_200", "known_500"),
    "methods.build_s_matrix": ("known_500",),
    "methods.unknown_to_known_distances": ("known_500",),
    "methods.pairwise_leaf_distances": ("disjoint_100",),
    "io.parse": ALL,
    "io.write": ALL,
    "synth.generate": ("known_500",),
    "harness.load_corpus": ("known_500",),
    "harness.compare": ("partial_200",),
}


def load_mtdist():
    """Import mtdist from the checkout's ``src/``; None if it is missing."""
    src = ROOT / "src"
    if not (src / "mtdist" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import mtdist
    from mtdist import errors, harness, io, methods

    if Path(mtdist.__file__).resolve().parent != (src / "mtdist").resolve():
        return None
    return errors, harness, io, methods


def gen_seeds(seed: int, ensembles: int) -> list[int]:
    return [seed * 100 + r for r in range(ensembles)]


def groups_of(items: list) -> list[list]:
    """Split one ensemble's members into its GROUPS corpora."""
    return [items[q::GROUPS] for q in range(GROUPS)]


def ensemble_digest(blobs: list[bytes]) -> str:
    """sha256 over one method's CSVs of every corpus of an ensemble, in order."""
    return hashlib.sha256(b"".join(blobs)).hexdigest()


class HostProbe:
    """Times a fixed piece of work: small numpy calls from the interpreter, a
    gather and plain dict updates, the kinds of work mtdist does."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.cost = rng.random((48, 48))
        self.index = rng.integers(0, self.cost.size, 4096)
        self.times: list[float] = []

    def __call__(self) -> None:
        np = self.np
        for _ in range(PROBE_BURST):
            started = perf_counter()
            total = 0.0
            for row in self.cost:
                j = int(np.argmin(row))
                total += float(np.minimum(row, self.cost[j]).sum())
            flat = self.cost.ravel()[self.index]
            total += float(np.where(flat < 0.5, flat, 1.0 - flat).sum())
            counts: dict[int, int] = {}
            for k in range(1500):
                counts[k % 97] = counts.get(k % 97, 0) + k
            self.times.append(perf_counter() - started)


class Bench:
    """One benchmark process: inputs, operations, and the correctness gate."""

    def __init__(self, workload: str, work: Path, modules):
        self.errors, self.harness, self.io, self.methods = modules
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.work = work
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.cells = 0
        self.finite_cells = 0
        self.reference = json.loads(REFERENCE.read_text())
        self.probe = HostProbe()
        self.unrecorded: set[int] = set()
        self._serial = 0

    def fresh_dir(self, tag: str) -> Path:
        self._serial += 1
        return self.work / f"{self._serial:04d}_{tag}"

    def problem(self, message: str) -> None:
        self.problems.append(message)

    # -- set-up ------------------------------------------------------------

    def setup(self, gen_seed: int):
        """cmd_gen plus one load_corpus; returns (seconds, files, corpus)."""
        self.probe()
        started = perf_counter()
        files = self.harness.cmd_gen(
            self.fresh_dir(f"in{gen_seed}"), count=MEMBERS, seed=gen_seed, **self.spec
        )
        corpus = self.harness.load_corpus(files)
        return perf_counter() - started, files, corpus

    # -- operations ----------------------------------------------------------

    def run_ensemble(self, files, gen_seed: int, timings: dict, parallel: bool = True):
        """Every cmd_* operation once on each corpus of one ensemble; appends
        one time per corpus to ``timings`` and checks the outputs against the
        reference digests.  ``parallel=False`` leaves out the workers=2
        compare.  Returns {method: CSV bytes} per corpus."""
        csvs = [self.run_ops(group, timings, parallel) for group in groups_of(files)]
        recorded = self.reference.get(self.workload, {}).get(str(gen_seed))
        if recorded is None:
            if gen_seed not in self.unrecorded:
                print(f"note: no reference digests for generator seed {gen_seed}", file=sys.stderr)
                self.unrecorded.add(gen_seed)
            return csvs
        for m in METHODS:
            digest = ensemble_digest([c[m] for c in csvs])
            if recorded[m] != digest:
                self.problem(f"{m} seed {gen_seed}: CSV sha256 {digest} != reference {recorded[m]}")
        return csvs

    def run_ops(self, files, timings: dict, parallel: bool) -> dict[str, bytes]:
        """Every cmd_* operation once on one corpus; checks the outputs.

        Returns {method: CSV bytes}, identical for all three operations.
        """
        h = self.harness
        csvs: dict[str, list[bytes]] = {m: [] for m in METHODS}
        reports = []
        for m in METHODS:
            out = self.fresh_dir(f"matrix_{m}")
            self.probe()
            started = perf_counter()
            matrix, _failures, _ = h.cmd_matrix(m, files, out, workers=1)
            timings[f"matrix.{m}_s"].append(perf_counter() - started)
            self.attempted += 1
            self.check_matrix(matrix, f"cmd_matrix {m}")
            csvs[m].append(self.read_csv(out, m, len(files)))
        for workers, key in ((1, "compare_s"), (2, "compare.w2_s"))[: 1 + parallel]:
            out = self.fresh_dir(f"compare_w{workers}")
            self.probe()
            started = perf_counter()
            h.cmd_compare(files, out, workers=workers)
            timings[key].append(perf_counter() - started)
            self.attempted += 1
            for m in METHODS:
                csvs[m].append(self.read_csv(out, m, len(files)))
                matrix = self.io.read_matrix_csv(out / f"distances_{m}.csv")
                self.check_matrix(matrix, f"cmd_compare workers={workers} {m}")
            reports.append(json.loads((out / "report.json").read_text()))

        for m in METHODS:
            if any(blob != csvs[m][0] for blob in csvs[m]):
                self.problem(f"{m}: matrix / compare w1 / compare w2 CSVs differ")
        # report.json also holds wall times; only its count fields must agree
        count_keys = ("pair_count", "greedy_pair_count", "disagreement_pair_count",
                      "counts", "disagreement_counts")
        counts = [{k: r[k] for k in count_keys} for r in reports]
        if counts[0] != counts[-1]:
            self.problem("report.json counts differ between workers=1 and workers=2")
        if counts[0]["counts"]["M2>G"] != 0:
            self.problem(f"report.json M2>G = {counts[0]['counts']['M2>G']}, expected 0")
        return {m: csvs[m][0] for m in METHODS}

    def read_csv(self, out: Path, method: str, n: int) -> bytes:
        blob = (out / f"distances_{method}.csv").read_bytes()
        values = [line.split(",")[1:] for line in blob.decode().splitlines()[1:]]
        upper = [values[i][j] for i in range(n) for j in range(i + 1, n)]
        self.cells += len(upper)
        self.finite_cells += sum(1 for x in upper if x != "nan")
        return blob

    def check_matrix(self, matrix, where: str) -> None:
        try:
            matrix.check()
        except self.errors.MtdistError as exc:
            self.problem(f"{where}: DistanceMatrix.check failed: {exc}")

    def time_pairs(self, corpus, gen_seed: int, pair_ms: dict, csvs: list) -> None:
        """One direct estimator call per pair of each corpus; each must return
        the CSV's value, or refuse where the CSV holds NaN.  Appends the
        times to ``pair_ms`` in a fixed order."""
        trees = [t for _, t in corpus]
        for t in trees:  # the first lca on a loaded tree builds its index
            t.tree.lca(t.tree.root, t.tree.root)
        rng = random.Random(gen_seed)
        for group, group_csvs in zip(groups_of(trees), csvs):
            n = len(group)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            reevaluated = set(rng.sample(pairs, REEVALUATED_PAIRS))
            for m in METHODS:
                self.probe()
                self.time_method(m, group, pairs, group_csvs[m], reevaluated, pair_ms[m])

    def time_method(self, m, trees, pairs, csv: bytes, reevaluated, times: list) -> None:
        estimator = getattr(self.methods, f"{m}_distance")
        cells = [line.split(",")[1:] for line in csv.decode().splitlines()[1:]]
        for i, j in pairs:
            self.attempted += 1
            started = perf_counter()
            try:
                result = estimator(trees[i], trees[j])
            except self.errors.MtdistError as exc:
                times.append(1e3 * (perf_counter() - started))
                self.check_refusal(m, trees[i], trees[j], exc, cells[i][j], (i, j))
                continue
            times.append(1e3 * (perf_counter() - started))
            if float(cells[i][j]) != result.distance:
                self.problem(f"{m} pair {(i, j)}: direct {result.distance!r} != CSV {cells[i][j]}")
            if m != "greedy" and (i, j) in reevaluated:
                removed = result.matching.unmatched_a + result.matching.unmatched_b
                value = self.methods.evaluate_configuration(
                    trees[i], trees[j], removed=removed, pairs=result.matching.pairs
                )
                if value != result.distance:
                    self.problem(f"{m} pair {(i, j)}: re-evaluated {value!r} != reported {result.distance!r}")

    def check_refusal(self, method, a, b, exc, cell: str, pair) -> None:
        """Only greedy may refuse, and only a pair with no shared label."""
        expected = (
            method == "greedy"
            and isinstance(exc, self.errors.DisagreementUnsupported)
            and self.harness.classify_agreement(a, b).case.value == "disagreement"
        )
        if not expected:
            self.failed += 1
            self.problem(f"{method} pair {pair} failed: {type(exc).__name__}: {exc}")
        if cell != "nan":
            self.problem(f"{method} pair {pair} refused but the CSV holds {cell}")


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def provenance() -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                sha = ref_file.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                for line in packed.read_text().splitlines() if packed.is_file() else ():
                    if line.endswith(" " + ref[5:]):
                        sha = line.split()[0]
        else:
            sha = ref
    sources = sorted((ROOT / "src" / "mtdist").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()
    return {
        "git_sha": sha,
        "src_sha256": digest,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


TIMED_OPS = ("matrix.elm_s", "matrix.mmb_s", "matrix.greedy_s", "compare_s", "compare.w2_s")
SERIAL_OPS = TIMED_OPS[:4]


def measure(bench: Bench, seed: int, seconds: int) -> tuple[dict[str, float], dict]:
    """End-to-end metrics, tracing off.  Returns the metrics and the
    per-corpus and per-pair times they were taken from."""
    seeds = gen_seeds(seed, max(1, round(seconds / ENSEMBLE_SECONDS[bench.workload])))
    setup_times: list[float] = []
    timings = {k: [] for k in TIMED_OPS}
    pair_ms = {m: [] for m in METHODS}
    for gen_seed in seeds:
        elapsed, files, corpus = bench.setup(gen_seed)
        setup_times.append(elapsed)
        # workers=2 starts a pool per call; once per corpus of the first
        # ensemble checks its CSVs without crowding out serial samples
        csvs = bench.run_ensemble(files, gen_seed, timings, parallel=gen_seed == seeds[0])
        bench.time_pairs(corpus, gen_seed, pair_ms, csvs)
        if gen_seed == seeds[0]:
            first_inputs = [f.read_bytes() for f in files]
    elapsed, again, _ = bench.setup(seeds[0])  # one more set-up sample, and a
    setup_times.append(elapsed)                # determinism check
    if [f.read_bytes() for f in again] != first_inputs:
        bench.problem(f"cmd_gen seed {seeds[0]} is not deterministic")

    samples = {"setup_s": setup_times, **timings}
    samples.update({f"pair_ms.{m}": pair_ms[m] for m in METHODS})
    samples["probe_s"] = bench.probe.times
    raw = {"setup_s": statistics.median(setup_times)}
    raw.update({k: statistics.fmean(timings[k]) for k in TIMED_OPS})
    for m in METHODS:
        raw[f"pair_ms.{m}.p50"] = percentile(pair_ms[m], 50)
        raw[f"pair_ms.{m}.p90"] = percentile(pair_ms[m], 90)
    samples["raw_wall"] = raw
    scale = PROBE_REFERENCE_S / statistics.fmean(bench.probe.times)
    metrics = {k: value * scale for k, value in raw.items()}
    metrics["ok_share"] = bench.finite_cells / bench.cells
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["host.probe_scale"] = scale
    return metrics, samples


def measure_layers(bench: Bench, seed: int, workload: str) -> dict[str, float]:
    """Per-layer metrics from two traced serial passes over the run's first
    TRACE_ENSEMBLES ensembles.

    An untraced pass first gives the CSVs the traced ones must equal, the
    serial time the tracing overhead is taken against, and the parallel
    efficiency.
    """
    import tracer as tracing

    seeds = gen_seeds(seed, TRACE_ENSEMBLES)
    timings = {k: [] for k in TIMED_OPS}
    untraced_csvs = [bench.run_ensemble(bench.setup(s)[1], s, timings) for s in seeds]
    untraced_serial = sum(sum(timings[k]) for k in SERIAL_OPS)
    efficiency = sum(timings["compare_s"]) / (2 * sum(timings["compare.w2_s"]))

    passes = []
    for number in range(2):
        tr = tracing.Tracer()
        traced = {k: [] for k in TIMED_OPS}
        with tr:  # leaving restores every binding, or raises
            csvs = [bench.run_ensemble(bench.setup(s)[1], s, traced) for s in seeds]
        if csvs != untraced_csvs:
            bench.problem("traced CSVs differ from the untraced ones")
        summary = tr.summary()
        summary["trace.overhead_s"] = sum(sum(traced[k]) for k in SERIAL_OPS) - untraced_serial
        for name, needed in REQUIRED_SPANS.items():
            if workload in needed and tr.calls_of(name) == 0:
                bench.problem(f"span {name} recorded no call on {workload}")
        if workload != "disjoint_100" and summary["methods.pairwise_leaf_distances.calls"] != 0:
            bench.problem("pairwise_leaf_distances called on a workload with shared labels")
        tr.write_jsonl(SCRATCH / f"trace-{workload}-seed{seed}-pass{number}.jsonl")
        passes.append(summary)

    for key in EXACT_COUNTS:
        if passes[0][key] != passes[1][key]:
            bench.problem(f"{key} differs between traced passes: {passes[0][key]} vs {passes[1][key]}")
    metrics = {}
    for key in LAYER_UNITS:
        if key in EXACT_COUNTS:
            metrics[key] = passes[0][key]
        elif key in passes[0]:
            metrics[key] = (passes[0][key] + passes[1][key]) / 2
    metrics["compare.w2_s"] = statistics.fmean(timings["compare.w2_s"])
    metrics["harness.parallel_efficiency"] = efficiency
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced_serial

    stated = {
        "partial_200": metrics["methods.mmb.solve_share"] > 0.5,
        "known_500": metrics["methods.elm.lca_share"] > 0.5 and metrics["methods.elm.solve_share"] < 0.25,
        "disjoint_100": metrics["methods.pairwise_leaf_distances.calls"] > 0,
    }[workload]
    print(f"stated layer confirmed on {workload}: {'yes' if stated else 'no'}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="partial_200")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = load_mtdist()
    if modules is None:
        print(f"error: no mtdist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE.name}", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    work = SCRATCH / f"work-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    bench = Bench(args.workload, work, modules)
    try:
        if args.trace:
            metrics = measure_layers(bench, args.seed, args.workload)
            samples = {}
            units = LAYER_UNITS
        else:
            metrics, samples = measure(bench, args.seed, args.seconds)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = provenance()
    correct = not bench.problems and bench.failed == 0
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, problems=bench.problems, provenance=info,
                  samples=samples)
    (SCRATCH / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, provenance {json.dumps(info)}")
    for key, value in metrics.items():
        unit = units[key] if key in units else f"{LAYER_UNITS.get(key, 'ratio')} (unbounded)"
        print(f"  {key:40s} {value:.6g} {unit}" if isinstance(value, float) else f"  {key:40s} {value} {unit}")
    for key, value in samples.get("raw_wall", {}).items():
        print(f"  raw wall {key:31s} {value:.6g} {E2E_UNITS.get(key, 's')}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
