"""Command line interface.

Subcommands: gen, dist, matrix, compare, bench.  Exit codes: 0 success,
1 usage error, 2 data error (parse/validation/unsupported input),
3 partial failure (some pairs of a batch could not be computed).
The MT_WORKERS environment variable sets the default worker count.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import errors, harness
from .io import _ascii_number

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for kind in (int, float):  # type=int and type=float refuse what _ascii_number does
            self.register("type", kind, _ascii_number(kind))

    def error(self, message):  # argparse default exits with code 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mtdist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic ensemble")
    gen.add_argument("--preset", choices=sorted(harness.PRESETS))
    gen.add_argument("--max-vertices", type=int)
    gen.add_argument("--count", type=int, default=20)
    gen.add_argument("--label-fraction", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    dist = sub.add_parser("dist", help="distance between two trees")
    dist.add_argument("method", choices=sorted(harness.METHODS))
    dist.add_argument("file_a")
    dist.add_argument("file_b")

    matrix = sub.add_parser("matrix", help="pairwise distance matrix")
    matrix.add_argument("inputs", nargs="+")
    matrix.add_argument("--method", choices=sorted(harness.METHODS), default="elm")
    matrix.add_argument("--out", required=True)
    matrix.add_argument("--workers", type=int, default=None)
    matrix.add_argument("--heatmap", action="store_true")

    compare = sub.add_parser("compare", help="run all estimators and tabulate")
    compare.add_argument("inputs", nargs="+")
    compare.add_argument("--out", required=True)
    compare.add_argument("--workers", type=int, default=None)
    compare.add_argument("--heatmap", action="store_true")

    bench = sub.add_parser("bench", help="time full matrix runs per method")
    bench.add_argument("inputs", nargs="+")
    bench.add_argument("--repeat", type=int, default=1)
    bench.add_argument("--out")

    return parser


def _workers(flag: int | None) -> int:
    env = os.environ.get("MT_WORKERS", "").strip()
    try:  # --workers, else MT_WORKERS, else 1
        return _ascii_number(int)(env or "1") if flag is None else flag
    except ValueError:
        raise errors.ValidationError(f"MT_WORKERS={env!r} is not an integer") from None


def _run(args) -> int:
    if args.command == "gen":
        files = harness.cmd_gen(
            args.out,
            preset=args.preset,
            max_vertices=args.max_vertices,
            count=args.count,
            label_fraction=args.label_fraction,
            seed=args.seed,
        )
        print(f"wrote {len(files)} members and manifest.json to {args.out}")
        return EXIT_OK

    if args.command == "dist":
        res = harness.cmd_dist(args.method, args.file_a, args.file_b)
        print(harness.format_result(args.method, res))
        return EXIT_OK

    if args.command == "matrix":
        matrix, failures, seconds = harness.cmd_matrix(
            args.method,
            args.inputs,
            args.out,
            workers=_workers(args.workers),
            heatmap=args.heatmap,
        )
        print(
            f"{len(matrix.member_ids)} members, "
            f"{len(matrix.member_ids) * (len(matrix.member_ids) - 1) // 2} pairs, "
            f"method time {seconds:.3f}s"
        )
        for a, b, msg in failures:
            print(f"failed pair {a} / {b}: {msg}", file=sys.stderr)
        return EXIT_PARTIAL if failures else EXIT_OK

    if args.command == "compare":
        report = harness.cmd_compare(
            args.inputs, args.out, workers=_workers(args.workers), heatmap=args.heatmap
        )
        print(report.summary())
        for f in report.failures:
            print(
                f"failed pair {f['member_a']} / {f['member_b']} ({f['method']}): "
                f"{f['error']}",
                file=sys.stderr,
            )
        return EXIT_PARTIAL if report.failures else EXIT_OK

    if args.command == "bench":
        payload = harness.cmd_bench(args.inputs, repeat=args.repeat, out_path=args.out)
        for method, row in payload["timings"].items():
            print(
                f"{method}: {row['mean_s']:.3f}s +- {row['stdev_s']:.3f}s "
                f"over {row['runs']} runs"
            )
        print(f"machine: {payload['machine']['platform']}")
        return EXIT_OK

    raise _UsageError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except errors.MtdistError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, UnicodeDecodeError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
