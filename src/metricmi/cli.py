"""Command-line interface: gen-toy, distances, estimate, benchmark.

Single-value results are emitted as JSON, tables as CSV, plot data as
two-column .dat files.  Every command is deterministic: identical flags and
seed produce byte-identical outputs regardless of thread count.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .bias import DEFAULT_REPEATS, bias_corrected_mi, subsample_draws
from .data import (
    FORMAT_CSV_VECTORS,
    FORMAT_SPIKE_TEXT,
    VECTOR,
    load_dataset,
    save_dataset,
)
from .estimators import (
    HistogramConfig,
    KernelConfig,
    KsgConfig,
    histogram_mi,
    kernel_mi,
    ksg_mi,
)
from .metrics import MetricSpec, distance_matrix, write_distance_csv
from .toybench import (
    DEFAULT_MC_SAMPLES,
    DEFAULT_WIDTHS,
    BenchmarkProtocol,
    ToySpec,
    generate_toy,
    run_benchmark,
    write_records_csv,
    write_scatter_dat,
    write_summary_json,
)

_FORMATS = (FORMAT_CSV_VECTORS, FORMAT_SPIKE_TEXT)
_METRICS = ("euclidean", "victor-purpura", "van-rossum")


def _csv_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _add_io_flags(sub):
    sub.add_argument("--input", required=True, help="input dataset file")
    sub.add_argument(
        "--format",
        choices=_FORMATS,
        default=FORMAT_CSV_VECTORS,
        help="input file format (default: csv-vectors)",
    )
    sub.add_argument("--metric", choices=_METRICS, default=None,
                     help="distance metric (default: euclidean for vector data; "
                          "required for spike data)")
    sub.add_argument("--q", type=float, default=None,
                     help="victor-purpura shift cost (1/seconds)")
    sub.add_argument("--tau", type=float, default=None,
                     help="van-rossum time constant (seconds)")


@functools.cache  # one per process: each build leaves about 1 KiB resident
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricmi",
        description="Mutual information between a discrete stimulus and "
                    "responses in a metric space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-toy", help="generate a toy dataset (csv-vectors)")
    gen.add_argument("--ns", type=int, required=True, help="number of stimuli")
    gen.add_argument("--nd", type=int, required=True, help="response dimension")
    gen.add_argument("--nt", type=int, required=True, help="trials per stimulus")
    gen.add_argument("--sigma2", type=float, default=None,
                     help="response variance in [0, 1] (default: drawn uniformly)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(handler=_cmd_gen_toy)

    dist = sub.add_parser("distances", help="write the pairwise distance matrix as CSV")
    _add_io_flags(dist)
    dist.add_argument("-o", "--output", required=True)
    dist.set_defaults(handler=_cmd_distances)

    est = sub.add_parser("estimate", help="estimate mutual information (JSON output)")
    _add_io_flags(est)
    kind = est.add_mutually_exclusive_group()
    kind.add_argument("--kernel", action="store_true",
                      help="square-kernel estimator (default)")
    kind.add_argument("--ksg", action="store_true", help="digamma kNN estimator")
    kind.add_argument("--histogram", action="store_true", help="plug-in histogram")
    est.add_argument("--nh", type=int, default=None, help="kernel bandwidth as a count")
    est.add_argument("--h-frac", type=float, default=None,
                     help="kernel bandwidth as a mass fraction in (0, 1]")
    est.add_argument("--nk", type=int, default=None, help="kNN neighbor parameter")
    est.add_argument("--bin-width", type=float, default=None, help="histogram bin width")
    est.add_argument("--origin", type=float, default=None,
                     help="histogram bin anchor (default 0)")
    est.add_argument("--bias-correct", action="store_true",
                     help="extrapolate the 1/n_t bias expansion from subsamples")
    est.add_argument("--lambdas", type=_csv_floats, default=None,
                     help="comma-separated subsample fractions (default: the "
                          "0.1..1.0 grid restricted to fractions leaving at "
                          "least 2 trials)")
    est.add_argument("--repeats", type=int, default=None,
                     help=f"subsamples per fraction below 1 (default {DEFAULT_REPEATS})")
    est.add_argument("--seed", type=int, default=None, help="subsample seed (default 0)")
    est.add_argument("-o", "--output", default=None, help="write JSON here instead of stdout")
    est.set_defaults(handler=_cmd_estimate)

    bench = sub.add_parser("benchmark", help="toy benchmark: kernel vs histogram")
    bench.add_argument("--ns", type=int, required=True)
    bench.add_argument("--nd", type=int, required=True)
    bench.add_argument("--nt", type=int, required=True)
    bench.add_argument("--datasets", type=int, required=True)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--no-prune", action="store_true",
                       help="skip true-MI range balancing")
    bench.add_argument("--widths", type=_csv_floats, default=list(DEFAULT_WIDTHS),
                       help="histogram widths to sweep")
    bench.add_argument("--mc-samples", type=int, default=DEFAULT_MC_SAMPLES,
                       help="Monte-Carlo samples for the true MI")
    bench.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    bench.add_argument("--threads", type=int, default=None,
                       help="parallel workers (default: all cores)")
    bench.add_argument("-o", "--output", required=True, help="output directory")
    bench.set_defaults(handler=_cmd_benchmark)

    return parser


def _check_flags(args, parser) -> None:
    # a flag given where nothing reads it is a usage error, not silently
    # dropped; so is a flag missing where it is read.  Both are reported
    # before the input is read
    rules = [
        ("--q", args.q, args.metric == "victor-purpura", "--metric victor-purpura"),
        ("--tau", args.tau, args.metric == "van-rossum", "--metric van-rossum"),
    ]
    if args.command == "estimate":
        kernel = not (args.ksg or args.histogram)
        rules += [
            ("--nh", args.nh, kernel, "the kernel estimator"),
            ("--h-frac", args.h_frac, kernel, "the kernel estimator"),
            ("--nk", args.nk, args.ksg, "--ksg"),
            ("--bin-width", args.bin_width, args.histogram, "--histogram"),
            ("--origin", args.origin, args.histogram, "--histogram"),
            ("--metric", args.metric, not args.histogram, "the kernel and KSG estimators"),
            ("--lambdas", args.lambdas, args.bias_correct, "--bias-correct"),
            ("--repeats", args.repeats, args.bias_correct, "--bias-correct"),
            ("--seed", args.seed, args.bias_correct, "--bias-correct"),
        ]
    for flag, value, read, reader in rules:
        if value is not None and not read:
            parser.error(f"{flag} applies only to {reader}")
    for flag, value, read, reader in rules:
        if value is None and read and flag in ("--q", "--tau", "--nk", "--bin-width"):
            parser.error(f"{reader} requires {flag}")
    if args.command == "estimate" and args.nh is not None and args.h_frac is not None:
        parser.error("give at most one of --nh and --h-frac")


def _metric_from_args(args, dataset_kind: str, parser) -> MetricSpec:
    if args.metric is None:
        if dataset_kind == VECTOR:
            return MetricSpec.euclidean()
        parser.error("spike-train input requires an explicit --metric")
    if args.metric == "euclidean":
        return MetricSpec.euclidean()
    if args.metric == "victor-purpura":
        return MetricSpec.victor_purpura(args.q)
    return MetricSpec.van_rossum(args.tau)


def _out_of_memory(n: int, with_order: bool) -> MemoryError:
    # kernel and KSG hold an int64 neighbor order of the K columns counts read,
    # all n_r once they read half a row, and working arrays of n_r times K
    size = 8 * n * n
    text = f"the distance matrix for n_r = {n} responses needs {size} bytes"
    if with_order:
        text += f", and its int64 neighbor order up to another {size}, besides working arrays"
    return MemoryError(text)


def _cmd_gen_toy(args, parser) -> int:
    spec = ToySpec(args.ns, args.nd, args.nt, args.sigma2, args.seed)
    dataset, _, _ = generate_toy(spec)
    save_dataset(dataset, args.output)
    return 0


def _cmd_distances(args, parser) -> int:
    _check_flags(args, parser)
    dataset = load_dataset(args.input, args.format)
    metric = _metric_from_args(args, dataset.kind, parser)
    try:
        dm = distance_matrix(dataset, metric)
    except MemoryError:
        raise _out_of_memory(dataset.n_r, with_order=False) from None
    write_distance_csv(dm, args.output)
    return 0


def _cmd_estimate(args, parser) -> int:
    _check_flags(args, parser)
    dataset = load_dataset(args.input, args.format)
    try:
        out = _estimate(args, parser, dataset)
    except MemoryError:
        if args.histogram:
            raise
        raise _out_of_memory(dataset.n_r, with_order=True) from None
    # NaN and infinity are not JSON: refuse them before writing anything
    for key, value in out.items():
        for x in [bits for _, bits in value] if key == "curve" else [value]:
            if isinstance(x, float) and not math.isfinite(x):
                raise ValueError(f"non-finite {key} ({x}); nothing written")
    text = json.dumps(out, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _estimate(args, parser, dataset) -> dict:
    # under --bias-correct the raw value is the curve's point on all points,
    # from the one call that evaluates the curve
    dm = None
    if args.histogram:
        origin = 0.0 if args.origin is None else args.origin
        config = HistogramConfig(width=args.bin_width, origin=origin)
    else:
        metric = _metric_from_args(args, dataset.kind, parser)
        if args.ksg:
            config = KsgConfig(n_k=args.nk)
        elif args.nh is not None:
            config = KernelConfig(n_h=args.nh)
        elif args.h_frac is not None:
            config = KernelConfig(h=args.h_frac)
        else:
            config = KernelConfig(n_h=dataset.n_t)
        dm = distance_matrix(dataset, metric)

    if not args.bias_correct:
        if args.histogram:
            estimate = histogram_mi(dataset, config)
        else:
            estimate = (ksg_mi if args.ksg else kernel_mi)(dataset, dm, config)
        return {"estimator": estimate.estimator, "config": estimate.config,
                "bits": estimate.bits}
    repeats = DEFAULT_REPEATS if args.repeats is None else args.repeats
    seed = 0 if args.seed is None else args.seed
    draws = subsample_draws(dataset, args.lambdas, repeats, seed, config)
    fit, curve, raw = bias_corrected_mi(dataset, dm, config, draws, return_raw=True)
    estimate = config.tag(raw, dataset.n_r)
    return {"estimator": estimate.estimator, "config": estimate.config,
            "bits": estimate.bits, "curve": [[size, bits] for size, bits in curve],
            "intercept_bits": fit.intercept_bits, "A_bits": fit.A_bits,
            "B_bits": fit.B_bits, "residual": fit.residual}


def _cmd_benchmark(args, parser) -> int:
    protocol = BenchmarkProtocol(
        args.ns, args.nd, args.nt, args.datasets, prune=not args.no_prune
    )
    result = run_benchmark(
        protocol,
        seed=args.seed,
        widths=args.widths,
        repeats=args.repeats,
        mc_samples=args.mc_samples,
        max_workers=args.threads,
    )
    os.makedirs(args.output, exist_ok=True)
    write_records_csv(result, os.path.join(args.output, "records.csv"))
    write_summary_json(result, os.path.join(args.output, "summary.json"))
    write_scatter_dat(result, os.path.join(args.output, "scatter.dat"))
    sys.stdout.write(json.dumps(result.summary, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
