"""Benchmark a change against its parent, in pairs of runs, and write the summary.

    git archive <parent-commit> | tar -x -C /path/to/parent
    python3 tools/bench_pair.py --parent /path/to/parent --out BENCH_<n>.json

For every workload of ``BENCHMARK.json`` and every seed 10-19 (seeds not used
while writing a change), ``perfbench/run.py`` runs once from the parent
checkout and once from this one, each from its own ``src/`` and for the
``run_seconds`` that ``BENCHMARK.json`` sets; which side goes first alternates
from seed to seed, so a slow spell of the shared machine does not always land on
the same side.  The output file holds, per workload and side, the median and
quartiles of each end-to-end metric, the op counts (``peak_rss_mb`` is a
process maximum after a fixed-time loop, so it grows with the number of ops
a run fits), in how many pairs the change was better, every raw run, and each
side's ``src_lines``, the line count of its ``src/metricmi/*.py`` (as ``wc -l``).
After the pairs, ``perfbench/run.py --trace 1`` runs in three more alternating
pairs per workload, at seeds 10-12, so that one slow spell of the machine does
not decide a layer: the file holds each side's median of every per-layer metric
it prints (per traced op), and every traced run.

The exit status is 1 if any run, paired or traced, read ``"correct": false`` or
had failed ops (the file is still written, and each such run is named on
standard error), or if ``perfbench/run.py`` itself failed; otherwise 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(10, 20))
TRACE_SEEDS = SEEDS[:3]


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: bool = False) -> dict:
    """One ``perfbench/run.py`` run: its metrics and op counts, and raw times if untraced."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(cmd)} exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    run = {key: result[key] for key in ("attempted", "failed", "correct")}
    run["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:
        info = json.loads(lines[0])["info"]
        run.update({key: info[key] for key in (
            "op_mean_s", "yardstick_s", "cores", "python", "numpy", "scipy")})
    return run


def src_lines(checkout: Path) -> int:
    """Newlines in the checkout's ``src/metricmi/*.py``, the total ``wc -l`` prints."""
    files = (checkout / "src" / "metricmi").glob("*.py")
    return sum(path.read_bytes().count(b"\n") for path in files)


def spread(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles, exclusive method)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per side: spread of each metric and of the op count; pair-wise wins."""
    out = {}
    for side in ("parent", "change"):
        mine = [r for r in runs if r["side"] == side]
        out[side] = {m["name"]: spread([r["metrics"][m["name"]] for r in mine])
                     for m in metrics}
        out[side]["attempted"] = spread([r["attempted"] for r in mine])
        out[side]["failed"] = sum(r["failed"] for r in mine)
        out[side]["correct"] = all(r["correct"] for r in mine)
    by_seed = {}
    for r in runs:
        by_seed.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
    wins = {}
    for m in metrics:
        sign = 1 if m["better"] == "lower" else -1
        name = m["name"]
        wins[name] = sum(
            sign * (pair["change"][name] - pair["parent"][name]) < 0
            for pair in by_seed.values())
    out["change_better_pairs"] = wins
    out["pairs"] = len(by_seed)
    return out


def per_layer(traced: list[dict]) -> dict:
    """Per side: the median of each per-layer metric over its traced runs, and their op counts."""
    out = {}
    for side in ("parent", "change"):
        mine = [r for r in traced if r["side"] == side]
        out[side] = {
            "metrics": {name: statistics.median(r["metrics"][name] for r in mine)
                        for name in mine[0]["metrics"]},
            "attempted": sum(r["attempted"] for r in mine),
            "failed": sum(r["failed"] for r in mine),
            "correct": all(r["correct"] for r in mine),
        }
    return out


def write_summary(out: Path, runs: list[dict], traced: list[dict], spec: dict,
                  workloads: list[str], sides: dict) -> None:
    doc = {
        "command": f"python3 tools/bench_pair.py --parent <parent checkout> --out {out.name}",
        "seeds": SEEDS,
        "seconds": spec["run_seconds"],
        "machine": {key: runs[0][key] for key in ("cores", "python", "numpy", "scipy")},
        "src_lines": {side: src_lines(path) for side, path in sides.items()},
        "units": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "quartiles": "statistics.quantiles(n=4), exclusive method",
        "workloads": {w: summarize([r for r in runs if r["workload"] == w],
                                   spec["end_to_end"]) for w in workloads},
        "per_layer": {"seeds": TRACE_SEEDS, "median": "of the traced runs of each side",
                      "units": {m["name"]: m["unit"] for m in spec["per_layer"]},
                      "workloads": {w: per_layer([r for r in traced if r["workload"] == w])
                                    for w in workloads},
                      "runs": traced},
        "runs": runs,
    }
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="ascii")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": ROOT}

    def pairs(seeds: list[int], trace: bool) -> list[dict]:
        runs = []
        for workload in workloads:
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    result = run_once(sides[side], workload, seed, spec["run_seconds"], trace)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "ran": position, **result})
                    value = result["metrics"].get("op_mean_ref")
                    shown = f"op_mean_ref {value:.3f}" if value is not None else "traced"
                    print(f"{workload} seed {seed} {side}: {shown}, {result['attempted']} ops, "
                          f"{result['failed']} failed", file=sys.stderr)
        return runs

    runs = pairs(SEEDS, trace=False)
    traced = pairs(TRACE_SEEDS, trace=True)
    write_summary(args.out, runs, traced, spec, workloads, sides)
    checked = [(f"{r['workload']} seed {r['seed']} {r['side']}", r) for r in runs] + [
        (f"{r['workload']} seed {r['seed']} {r['side']}, traced", r) for r in traced]
    bad = [(name, r) for name, r in checked if r["failed"] or not r["correct"]]
    for name, r in bad:
        print(f"error: {name}: {r['failed']} failed ops, correct {str(r['correct']).lower()}",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
