"""Run one op in-process, time it, and decide whether its outputs are correct.

An op fails on a non-zero exit, an exception, output its workload's check
rejects, output that differs from an earlier run of the same op in this
process, or (when a reference is given) any number more than
``TOLERANCE_BITS`` away from the reference recorded for that op.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import metricmi.cli

TOLERANCE_BITS = 1e-9


@dataclass
class OpResult:
    seconds: float
    outputs: dict  # path under the output directory -> bytes; "stdout" is what the op printed
    problems: list


def parse_outputs(outputs: dict) -> dict:
    """Numbers and strings of every output file, for comparison with a tolerance."""
    parsed = {}
    for name, raw in outputs.items():
        if name == "stdout":
            continue
        text = raw.decode("ascii")
        if name.endswith(".json"):
            parsed[name] = json.loads(text)
        else:
            parsed[name] = [[_number(cell) for cell in line.replace(",", " ").split()]
                            for line in text.splitlines()]
    return parsed


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def differences(got, want, where: str = "") -> list[str]:
    """Places where ``got`` differs from ``want``; numbers may differ by TOLERANCE_BITS."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{where}: keys differ"]
        return [d for k in want for d in differences(got[k], want[k], f"{where}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, f"{where}[{i}]")]
    numeric = (int, float)
    if isinstance(want, numeric) and not isinstance(want, bool):
        if not isinstance(got, numeric) or not abs(got - want) <= TOLERANCE_BITS:
            return [f"{where}: {got!r} != reference {want!r}"]
        return []
    return [] if got == want else [f"{where}: {got!r} != reference {want!r}"]


class Runner:
    """Runs a workload's ops one at a time and checks each op's outputs."""

    def __init__(self, workload, out_dir: Path, reference: dict | None = None):
        self.workload = workload
        self.out_dir = out_dir
        self.reference = reference  # op key -> parse_outputs() of the reference run
        self._first: dict = {}

    def run(self, op, tracer=None) -> OpResult:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        problems = []
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                for argv in op.calls:
                    argv = [a.replace("{out}", str(self.out_dir)) for a in argv]
                    if tracer is None:
                        code = metricmi.cli.main(argv)
                    else:
                        with tracer.span("cli.main"):
                            code = metricmi.cli.main(argv)
                    if code != 0:
                        problems.append(f"exit code {code}: {' '.join(argv)}")
                        break
        except SystemExit as exc:  # argparse rejects a command line this way
            problems.append(f"exit code {exc.code}: {stderr.getvalue().strip()}")
        except Exception:  # noqa: BLE001 - any failure of the program fails the op
            problems.append(traceback.format_exc())
        seconds = time.perf_counter() - start

        outputs = {str(p.relative_to(self.out_dir)): p.read_bytes()
                   for p in sorted(self.out_dir.rglob("*")) if p.is_file()}
        outputs["stdout"] = stdout.getvalue().encode("ascii", "replace")
        if not problems:
            problems = self._check(op, outputs)
        return OpResult(seconds, outputs, problems)

    def _check(self, op, outputs: dict) -> list[str]:
        try:
            problems = self.workload.check(outputs)
            if self.reference is not None:
                problems += differences(parse_outputs(outputs), self.reference[op.key], op.key)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"malformed output: {exc!r}"]
        first = self._first.setdefault(op.key, outputs)
        if first != outputs:
            problems.append(f"{op.key}: output differs from an earlier run of the same op")
        return problems
