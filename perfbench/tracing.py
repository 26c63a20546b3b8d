"""Span tracing of the program's public functions, and the per-layer metrics.

The tracer wraps each function named in TRACED at every attribute of a loaded
`qconsensus` module that binds it, so calls made inside the package (for
example `simulator.run` calling `apply_channel`, or `apply_channel` calling
`validate_density_matrix`) are recorded as well as calls from the benchmark.
Each call becomes one span: name, start, end, parent span, op id, whether it
raised, and counts taken at the boundary.  Spans stay in memory and are
written out once, when the run ends.

A span's self time is its duration minus the durations of its child spans;
the program runs one thread of control, so children never overlap.  No layer
queues or waits for another (the only I/O is the CSV write), so there are no
wait metrics.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

TRACED = {
    "qcore": ("apply_channel", "validate_density_matrix", "purity"),
    "network": ("embed_neighborhood", "permutation_index_table"),
    "dynamics": ("build_channels",),
    "symmetry": ("gossip_fixed_point", "consensus_report", "v_total", "v_smc"),
    "simulator": (
        "run",
        "convergence_probability",
        "lyapunov_gap",
        "prepare_dicke",
        "measure_local_z",
        "measure_global_observable",
        "write_trajectory_csv",
    ),
    "cli": ("main",),
}

# Extra per-layer counts, beyond calls and self time, as (suffix, attr, unit).
# Counts labelled "computed" come from array shapes, not from hardware counters.
EXTRA = {
    "qcore.apply_channel": (("flops_computed", "flops", "flop/op"), ("bytes_computed", "bytes", "B/op")),
    "qcore.validate_density_matrix": (("failed", None, "calls/op"),),
    "dynamics.build_channels": (("kraus_bytes", "kraus_bytes", "B/op"), ("redundant_frac", None, "1")),
    "simulator.run": (("records", "records", "records/op"),),
    "simulator.write_trajectory_csv": (("bytes", "bytes", "B/op"),),
}

COMPLEX_BYTES = 16


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for module, names in TRACED.items():
        for fn in names:
            layer = f"{module}.{fn}"
            units[f"{layer}.calls"] = "calls/op"
            units[f"{layer}.self_s"] = "s/op"
            for suffix, _, unit in EXTRA.get(layer, ()):
                units[f"{layer}.{suffix}"] = unit
    units["simulator.records_unread_frac"] = "1"
    units["trace.overhead_s"] = "s/op"
    units["trace.overhead_frac"] = "1"
    return units


def apply_channel_cost(channel, rho) -> tuple[int, int]:
    """Computed flops and bytes of the dense operator sum sum_k A_k rho A_k^dag.

    Per d x d Kraus operator: two complex matmuls of 8 d^3 real flops each,
    and 2 d^2 for the accumulation.  Bytes count every d x d complex operand
    read or written once: 3 per matmul, 2 for the conjugate copy of A_k, 3 for
    the accumulation, plus 1 for the zeroed output.  Cache reuse is ignored.
    """
    d = rho.shape[0]  # the output has the input's shape
    k = len(channel.kraus_ops)
    return k * (16 * d**3 + 2 * d**2), COMPLEX_BYTES * d * d * (11 * k + 1)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _apply_channel_counts(tracer, args, kwargs, result):
    flops, nbytes = apply_channel_cost(_arg(args, kwargs, 0, "channel"), result)
    return {"flops": flops, "bytes": nbytes}


def _build_channels_counts(tracer, args, kwargs, result):
    key = (tracer.op_id, _arg(args, kwargs, 0, "family"), _arg(args, kwargs, 1, "topology"))
    redundant = key in tracer.built
    tracer.built.add(key)
    kraus_bytes = sum(a.nbytes for channel in result for a in channel.kraus_ops)
    return {"kraus_bytes": kraus_bytes, "redundant": redundant}


def _run_counts(tracer, args, kwargs, result):
    return {"records": len(result.records)}


def _csv_counts(tracer, args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 2, "path"))}


HOOKS = {
    "qcore.apply_channel": _apply_channel_counts,
    "dynamics.build_channels": _build_channels_counts,
    "simulator.run": _run_counts,
    "simulator.write_trajectory_csv": _csv_counts,
}

# Span fields, in list order.
NAME, START, END, PARENT, OP, FAILED, ATTRS = range(7)


class Tracer:
    """Records spans while installed; create it after the program is imported."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self.built: set = set()
        self._stack: list[int] = []
        self._targets = self._find_targets()

    def _find_targets(self):
        wrappers = {}
        for module, names in TRACED.items():
            mod = sys.modules.get(f"qconsensus.{module}")
            for fn_name in names:
                fn = getattr(mod, fn_name, None)
                if fn is not None:
                    wrappers[id(fn)] = (fn, self._wrap(f"{module}.{fn_name}", fn))
        targets = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qconsensus" and not mod_name.startswith("qconsensus."):
                continue
            for attr, value in list(vars(mod).items()):
                found = wrappers.get(id(value))
                if found is not None and found[0] is value:
                    targets.append((mod, attr, value, found[1]))
        return targets

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op_id, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if hook is not None:
                span[ATTRS] = hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for mod, attr, _, wrapper in self._targets:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._targets:
            setattr(mod, attr, original)

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one op; the traced calls it makes nest under it."""
        self.op_id = op_id
        self._stack.append(len(self.spans))
        self.spans.append(["op", time.perf_counter_ns(), 0, -1, op_id, False, None])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][END] = time.perf_counter_ns()

    def layer_metrics(self, n_ops: int, overhead_s: float, overhead_frac: float) -> dict[str, float]:
        """Per-op averages of every per-layer metric over `n_ops` traced ops."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        totals: dict[str, float] = {}

        def add(key, value):
            totals[key] = totals.get(key, 0) + value

        unread = records = 0
        for i, span in enumerate(spans):
            layer = span[NAME]
            if layer == "op":
                continue
            add(f"{layer}.calls", 1)
            add(f"{layer}.self_s", (span[END] - span[START] - child_ns[i]) * 1e-9)
            attrs = span[ATTRS] or {}
            for suffix, attr, _ in EXTRA.get(layer, ()):
                if attr is not None and attr in attrs:
                    add(f"{layer}.{suffix}", attrs[attr])
            if layer == "qcore.validate_density_matrix" and span[FAILED]:
                add(f"{layer}.failed", 1)
            if layer == "dynamics.build_channels" and attrs.get("redundant"):
                add("redundant_builds", 1)
            if layer == "simulator.run" and "records" in attrs:
                records += attrs["records"]
                parent = span[PARENT]
                if parent >= 0 and spans[parent][NAME] == "simulator.convergence_probability":
                    unread += attrs["records"]
        metrics = {name: totals.get(name, 0) / n_ops for name in per_layer_units()}
        builds = totals.get("dynamics.build_channels.calls", 0)
        metrics["dynamics.build_channels.redundant_frac"] = totals.get("redundant_builds", 0) / builds if builds else 0.0
        metrics["simulator.records_unread_frac"] = unread / records if records else 0.0
        metrics["trace.overhead_s"] = overhead_s
        metrics["trace.overhead_frac"] = overhead_frac
        return metrics

    def write(self, path, stamp: dict) -> None:
        """Write the spans as JSON: one list per span, fields as in `fields`."""
        payload = {
            "stamp": stamp,
            "fields": ["name", "start_ns", "end_ns", "parent", "op", "failed", "counts"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
