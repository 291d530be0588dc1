"""Outside-in layer tracer for the mtdist benchmark.

While a :class:`Tracer` is active, each traced public function of mtdist is
replaced at every binding its callers look up: the defining module, every
``mtdist`` module that imported the name, the ``harness.METHODS`` table and,
for tree primitives, the ``MergeTree`` class.  Leaving the ``with`` block
puts every original back and checks that nothing traced is left behind.

A span records name, start, end and the index of its parent span.  Spans
inside one estimator call carry the id ``<method>:<i>:<j>`` of the pair
(member indices in the loaded corpus).  Spans are kept in memory and
written out by :meth:`Tracer.write_jsonl` when the benchmark ends.

Pool workers forked by ``cmd_compare(..., workers=2)`` inherit the patched
functions; an at-fork hook switches tracing off in the child, so worker
processes run the original code paths and record nothing.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from mtdist import assignment, core, harness, io, methods, synth

_MARK = "__perfbench_traced__"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, pair, digest]
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, object, object]] = []  # (owner, key, original)
        self._tree_index: dict[int, int] = {}
        os.register_at_fork(after_in_child=self._off_in_child)

    def _off_in_child(self) -> None:
        self.active = False

    # -- spans ---------------------------------------------------------------

    def _call(self, name, fn, args, kwargs, *, pair=None, digest=None):
        parent = self._stack[-1] if self._stack else -1
        if pair is None and parent >= 0:
            pair = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, pair, digest])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index][2] = perf_counter()
            self._stack.pop()

    def _span_wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs)

        return traced

    def _method_wrapper(self, key, fn):
        @functools.wraps(fn)
        def traced(a, b):
            if not self.active:
                return fn(a, b)
            pair = f"{key}:{self._tree_index.get(id(a), -1)}:{self._tree_index.get(id(b), -1)}"
            return self._call(f"methods.{key}", fn, (a, b), {}, pair=pair)

        return traced

    def _solve_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(cost):
            if not self.active:
                return fn(cost)
            c = np.asarray(cost, dtype=np.float64)
            n, m = c.shape
            self.counts["assignment.solve.calls"] += 1
            self.counts["assignment.solve.cells"] += n * m
            self.counts["assignment.solve.square_cells"] += max(n, m) ** 2
            digest = hashlib.blake2b(
                repr(c.shape).encode() + np.ascontiguousarray(c).tobytes(), digest_size=16
            ).hexdigest()
            return self._call("assignment.solve", fn, (cost,), {}, digest=digest)

        return traced

    def _lca_many_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(tree, us, vs):
            if not self.active:
                return fn(tree, us, vs)
            self.counts["core.lca_many.calls"] += 1
            self.counts["core.lca_many.cells"] += int(
                np.prod(np.broadcast_shapes(np.shape(us), np.shape(vs)))
            )
            return self._call("core.lca_many", fn, (tree, us, vs), {})

        return traced

    def _counting_wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return traced

    def _load_corpus_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(paths):
            if not self.active:
                return fn(paths)
            corpus = self._call("harness.load_corpus", fn, (paths,), {})
            self._tree_index = {id(t): i for i, (_, t) in enumerate(corpus)}
            # the first lca on a freshly loaded tree builds its LCA index
            for _, t in corpus:
                self._call("core.index_build", t.tree.lca, (t.tree.root, t.tree.root), {})
            return corpus

        return traced

    def _compare_wrapper(self, fn):
        @functools.wraps(fn)
        def traced(inputs, out_dir, *, workers=1, heatmap=False):
            if not self.active:
                return fn(inputs, out_dir, workers=workers, heatmap=heatmap)
            name = "harness.compare" if workers == 1 else "harness.compare.w2"
            return self._call(
                name, fn, (inputs, out_dir), {"workers": workers, "heatmap": heatmap}
            )

        return traced

    def _pool_wrapper(self, cls):
        def make_pool(*args, **kwargs):
            if self.active:
                self.counts["harness.pool.payload_bytes"] += sum(
                    len(x) for x in kwargs.get("initargs", ()) if isinstance(x, bytes)
                )
            return cls(*args, **kwargs)

        setattr(make_pool, _MARK, True)
        return make_pool

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        """Swap ``original`` for ``wrapper`` in every mtdist module namespace."""
        setattr(wrapper, _MARK, True)
        found = False
        for name, module in list(sys.modules.items()):
            if name != "mtdist" and not name.startswith("mtdist."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    found = True
        for key, value in list(harness.METHODS.items()):
            if value is original:
                self._patched.append((harness.METHODS, key, original))
                harness.METHODS[key] = wrapper
                found = True
        if not found:
            raise RuntimeError(f"no binding of {original!r} found to trace")

    def _replace_on_class(self, cls, attr, wrapper) -> None:
        setattr(wrapper, _MARK, True)
        self._patched.append((cls, attr, getattr(cls, attr)))
        setattr(cls, attr, wrapper)

    def __enter__(self) -> "Tracer":
        spans = {
            core.classify_agreement: "core.classify",
            core.inf_norm_diff: "core.inf_norm_diff",
            methods.build_s_matrix: "methods.build_s_matrix",
            methods.unknown_to_known_distances: "methods.unknown_to_known_distances",
            methods.pairwise_leaf_distances: "methods.pairwise_leaf_distances",
            io.parse_mtree: "io.parse",
            io.write_mtree_file: "io.write",
            io.write_matrix_csv: "io.write",
            io.write_heatmap: "io.write",
            io.write_comparison_heatmap: "io.write",
            synth.generate_ensemble: "synth.generate",
            harness.cmd_gen: "harness.gen",
            harness.cmd_matrix: "harness.matrix",
        }
        for fn, name in spans.items():
            self._replace_everywhere(fn, self._span_wrapper(name, fn))
        for key, fn in (
            ("elm", methods.elm_distance),
            ("mmb", methods.mmb_distance),
            ("greedy", methods.greedy_distance),
        ):
            self._replace_everywhere(fn, self._method_wrapper(key, fn))
        self._replace_everywhere(assignment.solve, self._solve_wrapper(assignment.solve))
        self._replace_everywhere(harness.load_corpus, self._load_corpus_wrapper(harness.load_corpus))
        self._replace_everywhere(harness.cmd_compare, self._compare_wrapper(harness.cmd_compare))
        self._replace_on_class(
            core.MergeTree, "lca_many", self._lca_many_wrapper(core.MergeTree.lca_many)
        )
        self._replace_on_class(
            core.MergeTree,
            "path_distance_many",
            self._span_wrapper("core.path_distance_many", core.MergeTree.path_distance_many),
        )
        self._replace_on_class(
            core.MergeTree, "is_leaf", self._counting_wrapper("core.is_leaf.calls", core.MergeTree.is_leaf)
        )
        self._patched.append((harness, "ProcessPoolExecutor", harness.ProcessPoolExecutor))
        harness.ProcessPoolExecutor = self._pool_wrapper(harness.ProcessPoolExecutor)
        self.active = True
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self.check_restored()

    def check_restored(self) -> None:
        """Raise unless every patched binding holds its original again."""
        for owner, key, original in self._patched:
            now = owner[key] if isinstance(owner, dict) else getattr(owner, key)
            if now is not original:
                raise RuntimeError(f"{key} was not restored")
        leftovers = [
            f"{name}.{attr}"
            for name, module in list(sys.modules.items())
            if name == "mtdist" or name.startswith("mtdist.")
            for attr, value in list(vars(module).items()) + list(
                vars(core.MergeTree).items() if name == "mtdist.core" else []
            )
            if getattr(value, _MARK, False)
        ]
        leftovers += [k for k, v in harness.METHODS.items() if getattr(v, _MARK, False)]
        if leftovers:
            raise RuntimeError(f"traced bindings left behind: {leftovers}")

    # -- analysis ------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer totals over every span and count recorded so far."""
        spans = self.spans
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for (name, start, end, *_), covered in zip(spans, child_time):
            self_time[name] += (end - start) - covered

        by_method: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, _, pair, _ in spans:
            if pair is not None:
                by_method[pair.split(":", 1)[0]][name] += end - start

        solves_in_compare = [
            digest
            for name, _, _, parent, _, digest in spans
            if name == "assignment.solve" and self._has_ancestor(parent, "harness.compare")
        ]

        out = {
            "assignment.solve_s": total["assignment.solve"],
            "assignment.solve.calls": self.counts["assignment.solve.calls"],
            "assignment.solve.cells": self.counts["assignment.solve.cells"],
            "assignment.solve.square_cells": self.counts["assignment.solve.square_cells"],
            "assignment.distinct_share": (
                len(set(solves_in_compare)) / len(solves_in_compare) if solves_in_compare else 1.0
            ),
            "core.lca_many_s": total["core.lca_many"],
            "core.lca_many.calls": self.counts["core.lca_many.calls"],
            "core.lca_many.cells": self.counts["core.lca_many.cells"],
            "core.is_leaf.calls": self.counts["core.is_leaf.calls"],
            "core.inf_norm_diff_s": total["core.inf_norm_diff"],
            "core.path_distance_many_s": total["core.path_distance_many"],
            "core.classify.calls": calls["core.classify"],
            "core.classify_s": total["core.classify"],
            "core.index_build_s": total["core.index_build"],
            "methods.build_s_matrix_s": total["methods.build_s_matrix"],
            "methods.unknown_to_known_distances_s": total["methods.unknown_to_known_distances"],
            "methods.pairwise_leaf_distances_s": total["methods.pairwise_leaf_distances"],
            "methods.pairwise_leaf_distances.calls": calls["methods.pairwise_leaf_distances"],
            "io.parse_s": total["io.parse"],
            "io.parse.calls": calls["io.parse"],
            "io.write_s": total["io.write"],
            "synth.generate_s": total["synth.generate"],
            "harness.load_corpus_s": total["harness.load_corpus"],
            "harness.compare.self_s": self_time["harness.compare"],
            "harness.compare.w2.self_s": self_time["harness.compare.w2"],
            "harness.pool.payload_bytes": self.counts["harness.pool.payload_bytes"],
        }
        for key in ("elm", "mmb", "greedy"):
            span = total[f"methods.{key}"]
            inside = by_method[key]
            out[f"methods.{key}_s"] = span
            out[f"methods.{key}.self_s"] = self_time[f"methods.{key}"]
            out[f"methods.{key}.solve_share"] = inside["assignment.solve"] / span if span else 0.0
            out[f"methods.{key}.lca_share"] = inside["core.lca_many"] / span if span else 0.0
        return out

    def calls_of(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name) + self.counts.get(name + ".calls", 0)

    def _has_ancestor(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pair, _ in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "pair": pair}
                    )
                    + "\n"
                )
