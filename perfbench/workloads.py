"""The benchmark's workloads: seeded inputs, the ops run on them, output checks.

An op is a short list of ``metricmi`` command lines run in-process through
``metricmi.cli.main``.  ``{out}`` in an argument stands for the op's output
directory.  Every input is generated here from the benchmark's seed, during
set-up; the program only ever sees the files.  Each workload loads a
different layer of the program (see ``why`` in BENCHMARK.json).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from metricmi.data import LabeledDataset, save_dataset
from metricmi.toybench import ToySpec, generate_toy


@dataclass(frozen=True)
class Op:
    key: str
    calls: tuple[tuple[str, ...], ...]


def substream_seed(seed: int, *parts: int) -> int:
    """Seed of an input, independent of every other input of the run."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


def poisson_trains(seed: int, n_s: int, n_t: int, duration: float,
                   rate_lo: float, rate_hi: float) -> LabeledDataset:
    """Homogeneous Poisson spike trains; stimulus s fires at its own rate.

    Rates are drawn from [rate_lo, rate_hi] Hz, one per stimulus, stratified
    (one uniform draw in each of n_s equal bands, in shuffled order), so the
    total spike count, which sets the cost of a distance matrix, varies
    little between files.  Each trial's count is Poisson(rate * duration)
    with times uniform on [0, duration).
    """
    rng = np.random.default_rng(seed)
    bands = rng.permutation(n_s) + rng.uniform(0.0, 1.0, size=n_s)
    rates = rate_lo + (rate_hi - rate_lo) * bands / n_s
    trains, labels = [], []
    for s, rate in enumerate(rates):
        for _ in range(n_t):
            count = rng.poisson(rate * duration)
            trains.append(np.sort(rng.uniform(0.0, duration, size=count)))
            labels.append(s)
    return LabeledDataset.from_spike_trains(trains, labels)


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _estimate_problems(outputs: dict, name: str, bias_corrected: bool,
                       kernel_n_s: int | None = None) -> list[str]:
    """Problems in one ``estimate`` JSON output; [] when it is well formed.

    For the default kernel (n_h = n_t) the raw estimate is bounded above by
    log2(n_s), which ``kernel_n_s`` enables checking.
    """
    if name not in outputs:
        return [f"{name}: missing"]
    try:
        out = json.loads(outputs[name])
    except ValueError:
        return [f"{name}: not JSON"]
    problems = []
    if not _finite(out.get("bits")):
        problems.append(f"{name}: bits {out.get('bits')!r} is not finite")
    elif kernel_n_s is not None and out["bits"] > math.log2(kernel_n_s) + 1e-12:
        problems.append(f"{name}: kernel bits {out['bits']} above log2(n_s)")
    if bias_corrected:
        curve = out.get("curve")
        if not curve:
            problems.append(f"{name}: missing curve")
        elif not all(len(p) == 2 and _finite(p[0]) and _finite(p[1]) for p in curve):
            problems.append(f"{name}: curve has a non-finite point")
        for key in ("intercept_bits", "A_bits", "B_bits", "residual"):
            if not _finite(out.get(key)):
                problems.append(f"{name}: {key} {out.get(key)!r} missing or not finite")
    return problems


@dataclass(frozen=True)
class VectorEstimate:
    """One analysis session per op: kernel and KSG, each with and without bias correction."""

    name = "vector-estimate"
    n_d = 3
    n_s: int = 10
    n_t: int = 60
    files: int = 3

    def prepare(self, seed: int, workdir: Path) -> list[Op]:
        ops = []
        for k in range(self.files):
            path = workdir / f"vectors-{k}.csv"
            spec = ToySpec(self.n_s, self.n_d, self.n_t, None, substream_seed(seed, k, 0))
            save_dataset(generate_toy(spec)[0], path)
            est = ("estimate", "--input", str(path))
            ops.append(Op(f"vectors-{k}", (
                est + ("--kernel", "-o", "{out}/kernel.json"),
                est + ("--kernel", "--bias-correct", "-o", "{out}/kernel-bc.json"),
                est + ("--ksg", "--nk", "3", "-o", "{out}/ksg.json"),
                est + ("--ksg", "--nk", "3", "--bias-correct", "-o", "{out}/ksg-bc.json"),
            )))
        return ops

    def check(self, outputs: dict) -> list[str]:
        return (
            _estimate_problems(outputs, "kernel.json", False, kernel_n_s=self.n_s)
            + _estimate_problems(outputs, "kernel-bc.json", True)
            + _estimate_problems(outputs, "ksg.json", False)
            + _estimate_problems(outputs, "ksg-bc.json", True)
        )


@dataclass(frozen=True)
class SpikeEstimate:
    """Kernel estimate of one spike-train file under Victor-Purpura and van Rossum."""

    name = "spike-estimate"
    duration_s = 1.0
    rates_hz = (10.0, 30.0)
    n_s: int = 10
    n_t: int = 10
    files: int = 4

    def prepare(self, seed: int, workdir: Path) -> list[Op]:
        ops = []
        for k in range(self.files):
            path = workdir / f"spikes-{k}.txt"
            trains = poisson_trains(substream_seed(seed, k, 1), self.n_s, self.n_t,
                                    self.duration_s, *self.rates_hz)
            save_dataset(trains, path)
            est = ("estimate", "--input", str(path), "--format", "spike-text", "--kernel")
            ops.append(Op(f"spikes-{k}", (
                est + ("--metric", "victor-purpura", "--q", "10", "-o", "{out}/vp.json"),
                est + ("--metric", "van-rossum", "--tau", "0.02", "-o", "{out}/vr.json"),
            )))
        return ops

    def check(self, outputs: dict) -> list[str]:
        return (
            _estimate_problems(outputs, "vp.json", False, kernel_n_s=self.n_s)
            + _estimate_problems(outputs, "vr.json", False, kernel_n_s=self.n_s)
        )


@dataclass(frozen=True)
class ToyBenchmark:
    """One pruned ``metricmi benchmark`` protocol per op, each with its own seed.

    Truth probes come in chunks of 256, and a seed needs one or two chunks.
    At the default 10 000 Monte-Carlo samples a chunk costs as much as the
    rest of the op, which makes op times bimodal; 2000 samples keep probing
    visible (about a fifth of an op per chunk) while a run's mean op time
    stays steady.  Five subsamples per fraction instead of ten halve the op,
    so a run averages over twice as many.
    """

    name = "toy-benchmark"
    n_s = 10
    n_d = 3
    datasets = 10  # the fewest a pruned protocol allows
    n_t: int = 20
    runs: int = 16
    extra: tuple[str, ...] = ("--mc-samples", "2000", "--repeats", "5")

    def prepare(self, seed: int, workdir: Path) -> list[Op]:
        shape = ("--ns", str(self.n_s), "--nd", str(self.n_d), "--nt", str(self.n_t),
                 "--datasets", str(self.datasets))
        return [
            Op(f"benchmark-{k}", ((
                "benchmark", *shape, "--seed", str(substream_seed(seed, k, 2)),
                "--threads", "1", *self.extra, "-o", "{out}/bench",
            ),))
            for k in range(self.runs)
        ]

    def check(self, outputs: dict) -> list[str]:
        names = ("bench/summary.json", "bench/records.csv", "bench/scatter.dat")
        missing = [f"{n}: missing" for n in names if n not in outputs]
        if missing:
            return missing
        summary = json.loads(outputs["bench/summary.json"])
        problems = []
        if outputs["stdout"] != outputs["bench/summary.json"]:
            problems.append("printed summary differs from summary.json")
        if summary.get("accepted") != self.datasets or summary.get("shortfall") != 0:
            problems.append(f"accepted {summary.get('accepted')} of {self.datasets} datasets")
        for key in ("mean_abs_err_kernel", "mean_abs_err_histogram"):
            if not _finite(summary.get(key)):
                problems.append(f"{key} {summary.get(key)!r} is not finite")
        records = outputs["bench/records.csv"].decode("ascii").splitlines()
        scatter = outputs["bench/scatter.dat"].decode("ascii").splitlines()
        if len(records) != self.datasets + 1 or len(scatter) != self.datasets:
            problems.append("records.csv or scatter.dat has the wrong number of rows")
        cells = [c for row in records[1:] for c in row.split(",")]
        cells += [c for row in scatter for c in row.split()]
        if not all(math.isfinite(float(c)) for c in cells):
            problems.append("a record or scatter value is not finite")
        return problems


WORKLOADS = {w.name: w for w in (VectorEstimate(), SpikeEstimate(), ToyBenchmark())}

# tiny sizes for the self-test; same code paths, a fraction of the work
TINY = {w.name: w for w in (
    VectorEstimate(n_s=3, n_t=40, files=2),  # KSG at n_k=3 needs 4 trials at lambda=0.1
    SpikeEstimate(n_s=3, n_t=6, files=2),
    ToyBenchmark(n_t=6, runs=2,
                 extra=("--mc-samples", "500", "--widths", "1,2", "--repeats", "3")),
)}
