"""metricmi benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload vector-estimate --seed 0 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Set-up (import, input generation from ``--seed``, one warm-up op)
is repeated and its median reported as ``setup_s``.  The timed phase is a
closed loop: one client runs the workload's ops back to back, in-process
through ``metricmi.cli.main`` and single-threaded, until ``--seconds`` have
passed (at least ``MIN_OPS`` ops).  Every op's outputs are checked.  Before
each op a fixed ``Yardstick`` job is timed, and per-op cost is reported as
``op_mean_ref``, mean op time over mean yardstick time, which cancels the
shared machine's speed swings; raw seconds are in the info line.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
prints its per-layer metrics: each op runs untraced and then traced on the
same input, so the same run also gives the tracing overhead; the raw spans go
to ``.perfbench_work/trace-<workload>-seed<seed>.json``.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
MIN_OPS = 4
REFERENCE_SEED = 0
# import cost as a user of the CLI pays it: a fresh interpreter
IMPORT_PROBE = "import metricmi.cli"


def load_program() -> None:
    """Put the checkout's ``src/`` first on the path; fail if it holds no metricmi."""
    if not (SRC / "metricmi" / "__init__.py").is_file():
        raise SystemExit(f"error: no metricmi package under {SRC}")
    sys.path.insert(0, str(SRC))
    import metricmi

    if Path(metricmi.__file__).resolve().parent != SRC / "metricmi":
        raise SystemExit(f"error: imported metricmi from {metricmi.__file__}, not {SRC}")


def load_reference(workload: str) -> dict:
    with open(HERE / "reference.json", encoding="ascii") as fh:
        return json.load(fh)["workloads"][workload]


def _import_in_fresh_interpreter() -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                   check=True, timeout=120)


class Yardstick:
    """Machine speed at the moment: a fixed job that never touches metricmi.

    The job mixes what the program's ops spend their time on: stable row
    sorts of a 2 MB matrix, many small numpy calls, and pure-Python
    arithmetic.  Run beside every op, it moves with the shared
    machine's slow and fast spells, so op time divided by yardstick time
    measures the program rather than its neighbours.
    """

    def __init__(self):
        self._matrix = np.random.default_rng(0).random((500, 500))
        self._labels = np.repeat(np.arange(10), 20)

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(2):
            np.argsort(self._matrix, axis=1, kind="stable")
        rng = np.random.default_rng(1)
        for _ in range(60):
            for s in range(10):
                rng.choice(np.flatnonzero(self._labels == s), 5, replace=False)
        total = 0
        for i in range(150_000):
            total += i * i
        return time.perf_counter() - start


def _report(problems: list[str], what: str) -> None:
    for problem in problems[:5]:
        print(f"FAILED {what}: {problem}", file=sys.stderr)


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path,
            reference: dict | None) -> dict:
    """Set up, run the timed phase, and return the metrics, counts and info."""
    from harness import Runner
    from tracing import Tracer

    runner = Runner(workload, workdir / "out", reference)

    setup_times, setup_failed = [], 0
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        _import_in_fresh_interpreter()
        inputs = workdir / f"inputs-{rep}"
        inputs.mkdir()
        ops = workload.prepare(seed, inputs)
        warm = runner.run(ops[0])
        setup_times.append(time.perf_counter() - start)
        if warm.problems:
            setup_failed += 1
            _report(warm.problems, f"warm-up {ops[0].key}")

    # with tracing, each op runs untraced and then traced on the same input
    tracer = Tracer() if trace else None
    per_input = 2 if trace else 1
    yardstick = Yardstick()
    plain, traced, toy_summaries, yards = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted < MIN_OPS or attempted % per_input or time.perf_counter() < deadline:
        op = ops[attempted // per_input % len(ops)]
        yards.append(yardstick())
        if tracer is not None and attempted % 2 == 1:
            with tracer.op():
                result = runner.run(op, tracer)
            traced.append(result.seconds)
            if not result.problems and "bench/summary.json" in result.outputs:
                toy_summaries.append(json.loads(result.outputs["bench/summary.json"]))
        else:
            result = runner.run(op)
            plain.append(result.seconds)
        attempted += 1
        if result.problems:
            failed += 1
            _report(result.problems, op.key)

    info = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "ops": attempted, "distinct_ops": len(ops), "untraced_ops": len(plain),
        "traced_ops": len(traced), "setup_repeats": SETUP_REPEATS,
        "reference_checked": reference is not None,
        "cores": os.cpu_count(), "python": platform.python_version(),
    }
    info["numpy"] = np.__version__
    info["scipy"] = __import__("scipy").__version__
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_mean_ref": statistics.fmean(plain) / statistics.fmean(yards),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info["op_mean_s"] = statistics.fmean(plain)
        info["op_p50_s"] = statistics.median(plain)
        info["yardstick_s"] = statistics.fmean(yards)
        info["bases"] = {"op_mean_ref": f"mean of {len(plain)} ops over mean of "
                                        f"{len(yards)} yardstick runs, interleaved",
                         "op_mean_s": f"mean of {len(plain)} ops",
                         "op_p50_s": f"median of {len(plain)} ops",
                         "setup_s": f"median of {SETUP_REPEATS} set-ups"}
    else:
        metrics, bases = tracer.layer_metrics(traced, toy_summaries)
        metrics["trace.op_mean_s"] = statistics.fmean(traced)
        metrics["trace.overhead_frac"] = statistics.median(
            t / p for p, t in zip(plain, traced)) - 1.0
        bases["trace.overhead_frac"] = (
            f"median over {len(traced)} pairs of one op run untraced, then traced"
        )
        info["bases"] = bases
        info["unwrapped"] = tracer.missing
        trace_path = WORK / f"trace-{workload.name}-seed{seed}.json"
        tracer.write(trace_path, {"info": info, "metrics": metrics, "op_seconds": traced})
        info["trace_file"] = str(trace_path.relative_to(ROOT))
    return {"info": info, "metrics": metrics, "attempted": attempted,
            "failed": failed, "correct": failed == 0 and setup_failed == 0}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    load_program()
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    reference = load_reference(args.workload) if args.seed == REFERENCE_SEED else None
    try:
        run = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"info": run["info"]}, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
