"""Record the reference outputs that seed-0 runs of the benchmark are checked against.

    python3 perfbench/record_reference.py

Runs every distinct op of every workload once at the reference seed and
writes the numbers of its outputs to ``perfbench/reference.json``.  Run it
only at a commit whose outputs are the accepted reference: a change that
moves any output by more than ``TOLERANCE_BITS`` must argue for the new
values before re-recording them.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import HERE, REFERENCE_SEED, WORK, load_program


def main() -> int:
    load_program()
    from harness import TOLERANCE_BITS, Runner, parse_outputs
    from workloads import WORKLOADS

    recorded = {}
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for name, workload in WORKLOADS.items():
            runner = Runner(workload, Path(tmp) / "out")
            recorded[name] = {}
            for op in workload.prepare(REFERENCE_SEED, Path(tmp)):
                result = runner.run(op)
                if result.problems:
                    print(f"{op.key}: {result.problems}", file=sys.stderr)
                    return 1
                recorded[name][op.key] = parse_outputs(result.outputs)
                print(f"recorded {name} {op.key}")
    with open(HERE / "reference.json", "w", encoding="ascii") as fh:
        json.dump({"seed": REFERENCE_SEED, "tolerance_bits": TOLERANCE_BITS,
                   "workloads": recorded}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
