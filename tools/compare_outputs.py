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
Victor-Purpura at q=0 and q=10 and van Rossum at tau=0.02.  Every output's
SHA-256 is compared (327 outputs in all); the names that differ, or exist on
one side only, are printed, and the exit status is 1 if there are any.
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
MATRICES = {
    "vp-q0.csv": ("--metric", "victor-purpura", "--q", "0"),
    "vp-q10.csv": ("--metric", "victor-purpura", "--q", "10"),
    "vr-tau0.02.csv": ("--metric", "van-rossum", "--tau", "0.02"),
}


def digests(checkout: Path, workdir: Path) -> dict:
    """Output name -> SHA-256 of every op of the set, run in ``checkout``."""
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
            out[f"{where}/{op.key}/{file}"] = hashlib.sha256(raw).hexdigest()

    for name, seeds in SEEDS.items():
        workload = WORKLOADS[name]
        for seed in seeds:
            inputs = workdir / f"{name}-{seed}"
            inputs.mkdir()
            runner = Runner(workload, workdir / "out")
            for op in workload.prepare(seed, inputs):
                run(runner, f"{name}/seed{seed}", op)
    for seed in MATRIX_SEEDS:
        inputs = workdir / f"spike-matrices-{seed}"
        inputs.mkdir()
        runner = Runner(SimpleNamespace(check=lambda outputs: []), workdir / "out")
        for op in WORKLOADS["spike-estimate"].prepare(seed, inputs):
            source = op.calls[0][op.calls[0].index("--input") + 1]
            run(runner, f"spike-matrices/seed{seed}", Op(op.key, tuple(
                ("distances", "--input", source, "--format", "spike-text", *flags,
                 "-o", f"{{out}}/{file}") for file, flags in MATRICES.items())))
    return out


def run_side(checkout: Path) -> dict:
    """``digests`` of ``checkout``, computed in a fresh interpreter."""
    code = ("import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
            "import compare_outputs as c; "
            "print(json.dumps(c.digests(Path(sys.argv[2]), Path(sys.argv[3]))))")
    with tempfile.TemporaryDirectory() as workdir:
        proc = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "tools"), str(checkout), workdir],
            cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: the run in {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    args = parser.parse_args(argv)
    parent, change = run_side(args.parent.resolve()), run_side(ROOT)
    differ = sorted(name for name in parent.keys() | change.keys()
                    if parent.get(name) != change.get(name))
    for name in differ:
        print(name)
    print(f"{len(differ)} of {len(parent.keys() | change.keys())} outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
