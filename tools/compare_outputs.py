"""List every output file whose bytes differ between a parent checkout and this one.

    git archive <parent-commit> | tar -x -C /path/to/parent
    python3 tools/compare_outputs.py --parent /path/to/parent

Each checkout runs, in its own interpreter and from its own ``src/`` and
``perfbench/``, a fixed set of benchmark ops with the inputs that
``perfbench/workloads.py`` generates from the seed: the four estimate JSONs
of vector-estimate at seeds 0-4, the spike-estimate JSONs at seed 0, and
records.csv, summary.json, scatter.dat and the printed summary of every
toy-benchmark op at seeds 0-2.  Since an estimate cannot show a last-bit
change in a distance matrix, the CSV that ``metricmi distances`` writes for
each spike-estimate input file at seeds 0-2 is compared too, under
Victor-Purpura at q=0 and q=10 and van Rossum at tau=0.02.  Since records.csv
and summary.json carry only the best histogram width, and no op runs the
histogram estimator from the command line, the JSON that ``metricmi estimate
--histogram --bin-width W --bias-correct`` prints for W = 0.5 and 3.0 on each
vector-estimate input file at seeds 0-2 is compared as well.  A bias-corrected
estimate takes its raw value from the curve, where the whole dataset is a
subset of its own when the fractions lack 1, and a kernel curve reads every
subset's first prefix at the width of the whole dataset; so the JSON that
``estimate --ksg --nk 3 --bias-correct --lambdas 0.4,0.6,0.8`` and ``estimate
--nh 25 --bias-correct`` print on each vector-estimate input file at seeds 0-2
is compared too.  Since every op seeds its subsamples with 0 and SeedSequence
hashes a seed of 2^32 or more as several words, the JSON that ``estimate
--bias-correct --seed 4294967296`` and ``estimate --ksg --nk 3 --bias-correct
--repeats 1 --seed 18446744073709551621`` print on the first vector-estimate
input file at seed 0 is compared as well.  Since every
toy-benchmark op has 10 stimuli and 2000 Monte-Carlo samples, the four outputs
of one unpruned ``metricmi benchmark`` at 40 stimuli and the default 10 000
samples are compared too; at 2 dimensions and 5 datasets its true MIs show a
last-bit change in how the log-mixture adds over stimuli.  Pruning screens
candidates by closed-form bounds widened by a margin that grows as the
sample count falls, so the four outputs of one pruned ``metricmi benchmark``
at 50 samples and 2 threads, where a truth is noisier against that margin,
are compared as well.  Candidates are drawn and bounded in blocks, whose
squared distances must add dimensions in cdist's order and whose seeds must
hash as SeedSequence does; so the four outputs of one pruned ``metricmi
benchmark`` at 10 dimensions, where about 2000 candidates are screened after
the last acceptance, and of one at base seed 2^64 + 5, three SeedSequence
words, are compared too.  Every output's SHA-256 is compared (381 outputs in
all); the names that differ, or exist on one side only, are printed, and
the exit status is 1 if there are any.  A
changed ``.csv`` output is also sized: how many of its comma-separated entries
differ, out of how many, and the largest relative difference among them.

Run with ``--parent`` set to this same checkout, the tool checks that every
output is byte-identical across two interpreters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SEEDS = {"vector-estimate": range(5), "spike-estimate": range(1), "toy-benchmark": range(3)}
MATRIX_SEEDS = range(3)
HISTOGRAM_SEEDS = range(3)
HISTOGRAM_WIDTHS = ("0.5", "3.0")
RAW_SEEDS = range(3)
RAW_FLAGS = {
    "ksg-no-full": ("--ksg", "--nk", "3", "--bias-correct", "--lambdas", "0.4,0.6,0.8"),
    "nh25": ("--nh", "25", "--bias-correct"),
}
BIG_SEED_FLAGS = {
    "seed-2^32": ("--bias-correct", "--seed", "4294967296"),
    "ksg-seed-2^64+5": ("--ksg", "--nk", "3", "--bias-correct", "--repeats", "1",
                        "--seed", "18446744073709551621"),
}
MATRICES = {
    "vp-q0.csv": ("--metric", "victor-purpura", "--q", "0"),
    "vp-q10.csv": ("--metric", "victor-purpura", "--q", "10"),
    "vr-tau0.02.csv": ("--metric", "van-rossum", "--tau", "0.02"),
}
TRUTH = ("benchmark", "--ns", "40", "--nd", "2", "--nt", "10", "--datasets", "5",
         "--no-prune", "--threads", "1", "-o", "{out}/bench")
LOW_SAMPLES = ("benchmark", "--ns", "10", "--nd", "3", "--nt", "10", "--datasets", "10",
               "--mc-samples", "50", "--threads", "2", "-o", "{out}/bench")
TEN_DIMS = ("benchmark", "--ns", "10", "--nd", "10", "--nt", "10", "--datasets", "10",
            "--threads", "1", "-o", "{out}/bench")
BIG_SEED = ("benchmark", "--ns", "10", "--nd", "3", "--nt", "10", "--datasets", "10",
            "--threads", "1", "--seed", "18446744073709551621", "-o", "{out}/bench")


def digests(checkout: Path, workdir: Path) -> dict:
    """Output name -> SHA-256 of every op of the set, run in ``checkout``.

    Each ``.csv`` output is also kept, as ``workdir/kept/<name>``.
    """
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import metricmi
    from harness import Runner
    from workloads import WORKLOADS, Op

    if Path(metricmi.__file__).resolve().parent != checkout / "src" / "metricmi":
        raise SystemExit(f"error: imported metricmi from {metricmi.__file__}, not {checkout}")

    out = {}

    def run(runner, where, op):
        result = runner.run(op)
        if result.problems:
            raise SystemExit(f"error: {where}/{op.key}: {result.problems}")
        for file, raw in result.outputs.items():
            name = f"{where}/{op.key}/{file}"
            out[name] = hashlib.sha256(raw).hexdigest()
            if name.endswith(".csv"):
                (workdir / "kept" / name).parent.mkdir(parents=True, exist_ok=True)
                (workdir / "kept" / name).write_bytes(raw)

    for name, seeds in SEEDS.items():
        workload = WORKLOADS[name]
        for seed in seeds:
            inputs = workdir / f"{name}-{seed}"
            inputs.mkdir()
            runner = Runner(workload, workdir / "out")
            for op in workload.prepare(seed, inputs):
                run(runner, f"{name}/seed{seed}", op)
    def unchecked_runner():
        return Runner(SimpleNamespace(check=lambda outputs: []), workdir / "out")

    def sources(workload, seed, where):
        # a runner of its own, and (op key, input file) of each op of the workload
        inputs = workdir / f"{where}-{seed}"
        inputs.mkdir()
        runner = unchecked_runner()
        for op in WORKLOADS[workload].prepare(seed, inputs):
            yield runner, op.key, op.calls[0][op.calls[0].index("--input") + 1]

    for seed in MATRIX_SEEDS:
        for runner, key, source in sources("spike-estimate", seed, "spike-matrices"):
            run(runner, f"spike-matrices/seed{seed}", Op(key, tuple(
                ("distances", "--input", source, "--format", "spike-text", *flags,
                 "-o", f"{{out}}/{file}") for file, flags in MATRICES.items())))
    for seed in HISTOGRAM_SEEDS:
        for runner, key, source in sources("vector-estimate", seed, "histogram"):
            for width in HISTOGRAM_WIDTHS:
                run(runner, f"histogram/seed{seed}", Op(f"{key}-w{width}", ((
                    "estimate", "--input", source, "--histogram", "--bin-width", width,
                    "--bias-correct"),)))
    for seed in RAW_SEEDS:
        for runner, key, source in sources("vector-estimate", seed, "raw"):
            for name, flags in RAW_FLAGS.items():
                run(runner, f"raw/seed{seed}", Op(f"{key}-{name}", (
                    ("estimate", "--input", source, *flags),)))
    runner, key, source = next(sources("vector-estimate", 0, "big-seeds"))
    for name, flags in BIG_SEED_FLAGS.items():
        run(runner, "big-seeds/seed0", Op(f"{key}-{name}", (
            ("estimate", "--input", source, *flags),)))
    run(unchecked_runner(), "truth", Op("benchmark-ns40", (TRUTH,)))
    run(unchecked_runner(), "truth", Op("benchmark-mc50", (LOW_SAMPLES,)))
    run(unchecked_runner(), "truth", Op("benchmark-nd10", (TEN_DIMS,)))
    run(unchecked_runner(), "truth", Op("benchmark-seed-2^64+5", (BIG_SEED,)))
    return out


def run_side(checkout: Path, workdir: Path) -> dict:
    """``digests`` of ``checkout``, computed in a fresh interpreter."""
    code = ("import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
            "import compare_outputs as c; "
            "print(json.dumps(c.digests(Path(sys.argv[2]), Path(sys.argv[3]))))")
    workdir.mkdir()
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "tools"), str(checkout), str(workdir)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: the run in {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def csv_change(old: str, new: str) -> str:
    """How many comma-separated entries of two CSV texts differ, and by how much."""
    old, new = ([line.split(",") for line in text.splitlines()] for text in (old, new))
    if [len(row) for row in old] != [len(row) for row in new]:
        return "rows or columns differ"
    moved = [(x, y) for row, other in zip(old, new) for x, y in zip(row, other) if x != y]
    count = f"{len(moved)} of {sum(map(len, old))} entries differ"
    try:
        moved = [(float(x), float(y)) for x, y in moved]
    except ValueError:
        return f"{count}, not all of them numbers"
    worst = max((abs(x - y) / max(abs(x), abs(y)) for x, y in moved if x != y), default=0.0)
    return f"{count}, largest relative difference {worst:.3g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = Path(tmp) / "parent", Path(tmp) / "change"
        parent, change = run_side(args.parent.resolve(), sides[0]), run_side(ROOT, sides[1])
        differ = sorted(name for name in parent.keys() | change.keys()
                        if parent.get(name) != change.get(name))
        for name in differ:
            if name.endswith(".csv") and name in parent and name in change:
                old, new = ((side / "kept" / name).read_text() for side in sides)
                print(f"{name}: {csv_change(old, new)}")
            else:
                print(name)
    print(f"{len(differ)} of {len(parent.keys() | change.keys())} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
