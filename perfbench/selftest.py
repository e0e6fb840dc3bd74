"""Fast self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Checks two properties on every workload and exits 0 when both hold:

1. Tracing changes nothing: each op run with the tracer's wrappers installed
   writes byte-identical outputs (files and printed text) to the same op run
   without them.
2. The output check bites: with estimators wrapped to return 1e-6 bits more
   than they compute, every op of a timed run is counted as failed against a
   reference recorded without the wrapper.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import sys
import tempfile
from pathlib import Path

from run import WORK, load_program

SHIFT_BITS = 1e-6


@contextlib.contextmanager
def _shifted(module, attr: str):
    """Replace ``module.attr`` by a version whose bits are SHIFT_BITS higher."""
    original = getattr(module, attr)

    def shifted(*args, **kwargs):
        result = original(*args, **kwargs)
        if isinstance(result, float):
            return result + SHIFT_BITS
        return dataclasses.replace(result, bits=result.bits + SHIFT_BITS)

    setattr(module, attr, shifted)
    try:
        yield
    finally:
        setattr(module, attr, original)


def check_workload(workload, workdir: Path) -> list[str]:
    import metricmi.bias
    import metricmi.cli
    from harness import Runner, parse_outputs
    from run import measure
    from tracing import Tracer

    failures = []
    ops = workload.prepare(1, workdir)
    untraced = [Runner(workload, workdir / "out").run(op) for op in ops]
    for op, result in zip(ops, untraced):
        failures += [f"{op.key} untraced: {p}" for p in result.problems]
    reference = {op.key: parse_outputs(r.outputs) for op, r in zip(ops, untraced)}

    tracer = Tracer()
    runner = Runner(workload, workdir / "out", reference)
    for op, plain in zip(ops, untraced):
        with tracer.op():
            traced = runner.run(op, tracer)
        failures += [f"{op.key} traced: {p}" for p in traced.problems]
        if traced.outputs != plain.outputs:
            failures.append(f"{op.key}: traced outputs differ from untraced outputs")
    if not tracer.spans or tracer.missing:
        failures.append(f"tracer recorded {len(tracer.spans)} spans, missed {tracer.missing}")

    with contextlib.ExitStack() as stack:
        # the kernel curve and the toy benchmark reach the kernel estimator
        # through kernel_bits_from_counts rather than kernel_mi
        for module, attr in ((metricmi.cli, "kernel_mi"), (metricmi.cli, "ksg_mi"),
                             (metricmi.bias, "kernel_bits_from_counts")):
            stack.enter_context(_shifted(module, attr))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))  # expected failures
        run = measure(workload, 1, 0.0, False, workdir / "shifted", reference)
    if run["failed"] != run["attempted"] or run["correct"]:
        failures.append(
            f"shifted estimators: {run['failed']} of {run['attempted']} ops failed, "
            f"correct={run['correct']}"
        )
    return failures


def main() -> int:
    load_program()
    from workloads import TINY

    WORK.mkdir(exist_ok=True)
    failures = []
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for name, workload in TINY.items():
            workdir = Path(tmp) / name
            (workdir / "shifted").mkdir(parents=True)
            found = check_workload(workload, workdir)
            print(f"{name}: {'ok' if not found else 'FAILED'}")
            failures += [f"{name}: {f}" for f in found]
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
