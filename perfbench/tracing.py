"""Spans around the calls into each metricmi layer, recorded from outside it.

The benchmark does not edit the program.  Instead the tracer replaces, for the
length of one op, the module-level names that each caller looks up (for
example ``metricmi.bias.ksg_mi``, which the KSG subsample curve calls) with
wrappers that record a span and call straight through.  Arguments and
results pass untouched, so traced ops write byte-identical outputs.

Spans are kept in memory as ``[name, start, end, parent, op]`` and written out
when the run ends.  The program is single-threaded here (``--threads 1``), so
spans nest strictly and a span's self time is its duration minus the summed
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from collections import defaultdict

# (module whose global is replaced, attribute, span name).  The layer is the
# span name up to its first dot.  Targets a later version of the program no
# longer has are skipped and listed in the run's info line.
TARGETS = (
    ("metricmi.cli", "load_dataset", "data.load_dataset"),
    ("metricmi.bias", "subsample_indices", "data.subsample_indices"),
    ("metricmi.cli", "distance_matrix", "metrics.distance_matrix"),
    ("metricmi.toybench", "distance_matrix", "metrics.distance_matrix"),
    ("metricmi.cli", "kernel_mi", "estimators.kernel_mi"),
    ("metricmi.toybench", "kernel_mi", "estimators.kernel_mi"),
    ("metricmi.cli", "ksg_mi", "estimators.ksg_mi"),
    ("metricmi.bias", "ksg_mi", "estimators.ksg_mi"),
    ("metricmi.cli", "histogram_mi", "estimators.histogram_mi"),
    ("metricmi.toybench", "histogram_mi", "estimators.histogram_mi"),
    ("metricmi.cli", "bias_corrected_mi", "bias.bias_corrected_mi"),
    ("metricmi.toybench", "bias_corrected_mi", "bias.bias_corrected_mi"),
    ("metricmi.bias", "subsample_curve", "bias.curve"),
    ("metricmi.bias", "quadratic_extrapolate", "bias.fit"),
    ("metricmi.cli", "run_benchmark", "toybench.run_benchmark"),
    ("metricmi.toybench", "true_mi", "toybench.true_mi"),
    ("metricmi.toybench", "generate_toy", "toybench.generate_toy"),
)

LAYERS = ("data", "metrics", "estimators", "bias", "toybench", "cli")

# subsample curves are split by the estimator config they were called with
_CURVE_KIND = {"KernelConfig": "kernel", "KsgConfig": "ksg", "HistogramConfig": "hist"}


def _config_of(args, kwargs):
    return kwargs.get("config", args[2] if len(args) > 2 else None)


class Tracer:
    """In-memory span recorder plus the counters read at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.pairs = 0
        self.subsample_calls = 0
        self.subsample_distinct = 0
        self._op = -1
        self._op_keys: set = set()
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent, self._op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()


    def _count_subsample(self, args, kwargs) -> None:
        d = args[0] if args else kwargs.get("d")
        lam = args[1] if len(args) > 1 else kwargs.get("lam")
        seed = args[2] if len(args) > 2 else kwargs.get("seed")
        # the indices depend only on the design, the fraction and the seed
        key = (d.n_s, d.n_t, lam, seed)
        self.subsample_calls += 1
        if key not in self._op_keys:
            self._op_keys.add(key)
            self.subsample_distinct += 1

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span_name = name
            if name == "bias.curve":
                kind = type(_config_of(args, kwargs)).__name__
                span_name = f"bias.{_CURVE_KIND.get(kind, kind)}_curve"
            elif name == "data.subsample_indices":
                self._count_subsample(args, kwargs)
            with self.span(span_name):
                result = fn(*args, **kwargs)
            if name == "metrics.distance_matrix":
                self.pairs += result.n_r * (result.n_r - 1) // 2
            return result

        return traced

    @contextlib.contextmanager
    def op(self):
        """Trace one op: wrap every target that exists, restore the originals on exit."""
        self._op += 1
        self._op_keys = set()
        saved = []
        missing = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
            self.missing = missing
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- aggregation -----------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: (inclusive seconds, self seconds, call count)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            inclusive[name] += end - start
            self_time[name] += end - start - covered
            calls[name] += 1
        return inclusive, self_time, calls

    def layer_metrics(
        self, op_seconds: list[float], toy_summaries: list[dict]
    ) -> tuple[dict, dict]:
        """Per-layer metrics over the traced ops, and the base of each.

        Times and call counts are per traced op; shares are layer self time over
        traced op time; fractions carry their own base, listed in ``bases``.
        """
        n_ops = max(len(op_seconds), 1)
        op_total = sum(op_seconds) or 1.0
        inclusive, self_time, calls = self.totals()

        def per_op(value):
            return value / n_ops

        def ratio(num, den):
            return num / den if den else 0.0

        curve_names = ("bias.kernel_curve", "bias.ksg_curve", "bias.hist_curve")
        attempts = sum(s["attempts"] for s in toy_summaries)
        accepted = sum(s["accepted"] for s in toy_summaries)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self_time.items():
            layer_self[name.split(".", 1)[0]] += seconds

        metrics = {
            "data.load_dataset_s": per_op(inclusive["data.load_dataset"]),
            "data.subsample_indices_s": per_op(inclusive["data.subsample_indices"]),
            "data.subsample_indices_calls": per_op(self.subsample_calls),
            "data.subsample_distinct_frac": ratio(self.subsample_distinct, self.subsample_calls),
            "metrics.distance_matrix_s": per_op(inclusive["metrics.distance_matrix"]),
            "metrics.pairs_per_s": ratio(self.pairs, inclusive["metrics.distance_matrix"]),
            "estimators.kernel_mi_s": per_op(inclusive["estimators.kernel_mi"]),
            "estimators.ksg_mi_s": per_op(inclusive["estimators.ksg_mi"]),
            "estimators.ksg_mi_calls": per_op(calls["estimators.ksg_mi"]),
            "bias.kernel_curve_s": per_op(inclusive["bias.kernel_curve"]),
            "bias.ksg_curve_s": per_op(inclusive["bias.ksg_curve"]),
            "bias.hist_curve_s": per_op(inclusive["bias.hist_curve"]),
            "bias.fit_s": per_op(inclusive["bias.fit"]),
            "bias.curve_self_s": per_op(sum(self_time[n] for n in curve_names)),
            "toybench.true_mi_s": per_op(inclusive["toybench.true_mi"]),
            "toybench.true_mi_calls": per_op(calls["toybench.true_mi"]),
            "toybench.generate_toy_s": per_op(inclusive["toybench.generate_toy"]),
            "toybench.probe_useful_frac": ratio(attempts, calls["toybench.true_mi"]),
            "toybench.accept_frac": ratio(accepted, attempts),
            "toybench.kernel_mae_bits": _mean([s["mean_abs_err_kernel"] for s in toy_summaries]),
            "toybench.hist_mae_bits": _mean([s["mean_abs_err_histogram"] for s in toy_summaries]),
            "cli.self_s": per_op(self_time["cli.main"]),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_share"] = layer_self[layer] / op_total
        bases = {
            "*_s, *_calls": f"per traced op ({len(op_seconds)} ops)",
            "*.self_share": f"layer self time over {op_total:.4f} s of traced ops",
            "data.subsample_distinct_frac": (
                f"{self.subsample_distinct} distinct of {self.subsample_calls} calls, "
                "distinct within an op"
            ),
            "metrics.pairs_per_s": f"{self.pairs} pairs",
            "toybench.probe_useful_frac": (
                f"{attempts} attempts examined of {calls['toybench.true_mi']} probes computed"
            ),
            "toybench.accept_frac": f"{accepted} accepted of {attempts} attempts",
            "toybench.*_mae_bits": f"mean over {len(toy_summaries)} benchmark ops",
        }
        return metrics, bases

    def write(self, path, extra: dict) -> None:
        """Write the raw spans and the run's aggregates as one JSON document."""
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, **extra}, fh)


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0
