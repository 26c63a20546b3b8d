"""qconsensus benchmark: one workload, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from `src/` of the checkout this file sits in; there
is nothing to build.  Set-up (import, input generation, reference loading and
one untimed warm-up op) runs SETUPS times, each on a fresh import of the
package, and `setup_s` is the median.  The timed loop then runs whole cycles
of the workload's op kinds until the next cycle would overrun `--seconds`,
and at least MIN_OPS ops, so that TAIL_BEYOND ops lie beyond the tail
percentile.  Every op's output is checked.

With `--trace 0` the end-to-end metrics are reported.  With `--trace 1` each
cycle runs twice, untraced and then traced on the same inputs; the traced
ops give the per-layer metrics, the pair gives the tracing overhead, and the
spans are written to .bench_out/.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread: on a shared two-core machine a second thread widens the
# run-to-run spread several times over.  A value set by the caller wins, and
# the run is refused when it exceeds nproc.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFS = HERE / "refs.json"
SETUPS = 3
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0, 25.0, 10.0)
MIN_OPS = math.ceil(TAIL_BEYOND / (1.0 - TAIL_PERCENTILES[-1] / 100.0))

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "ok_frac": "1",
}

PROGRAM_MODULES = ("qcore", "network", "dynamics", "symmetry", "simulator")


def program_present() -> bool:
    return (SRC / "qconsensus" / "__init__.py").is_file()


def import_program(with_cli: bool) -> SimpleNamespace:
    """Import the package afresh from SRC, dropping any earlier import of it."""
    for name in [n for n in sys.modules if n == "qconsensus" or n.startswith("qconsensus.")]:
        del sys.modules[name]
    package = importlib.import_module("qconsensus")
    if Path(package.__file__).resolve().parent != SRC / "qconsensus":
        raise ImportError(f"qconsensus imported from {package.__file__}, not from {SRC}")
    names = PROGRAM_MODULES + (("cli",) if with_cli else ())
    return SimpleNamespace(**{name: importlib.import_module(f"qconsensus.{name}") for name in names})


def blas_info() -> dict:
    """BLAS library name, version and thread count (None when unreadable)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        libs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
                break
        if threads is not None:
            break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    blas = blas_info()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas["name"],
        "blas_version": blas["version"],
        "blas_threads": blas["threads"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest of TAIL_PERCENTILES with TAIL_BEYOND samples beyond it.

    A fixed ladder of percentiles keeps the reported percentile the same when
    a run fits one cycle more or less.  With too few samples the value is the
    maximum, at percentile 100.
    """
    n = len(durations)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return float(np.percentile(durations, pct)), pct
    return max(durations), 100.0


def timed_op(wl, i: int, tracer, op_id: int) -> tuple[float, list[str], int]:
    """Run and check op i: (wall seconds, failures, steps)."""
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    if tracer is not None:
        tracer.begin_op(op_id)
    try:
        out = wl.op(i)
        error = None
    except Exception:  # a raised op counts as a failed op; the loop goes on
        out, error = None, f"op {i} raised:\n{traceback.format_exc()}"
    if tracer is not None:
        tracer.end_op()
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if error is not None:
        return elapsed, [error], 0
    return elapsed, wl.check(i, out), wl.steps(i, out)


def run_workload(name, seed, seconds, trace, *, params=None, refs_path=REFS, setups=SETUPS, out_dir=OUT, stamp=None):
    """Set up, run the timed loop and return (result, report lines, check failures)."""
    params = workloads.FULL[name] if params is None else params
    out_dir = Path(out_dir)
    work_dir = out_dir / f"{name}-seed{seed}-pid{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        seen: dict = {}
        setup_times, errors = [], []
        for _ in range(1 if trace else setups):
            start = time.perf_counter()
            mods = import_program(with_cli=name == "cli_session")
            refs = workloads.load_refs(refs_path, name, seed)
            wl = workloads.WORKLOADS[name](mods, seed, params, refs, seen, work_dir)
            before_warm_up = time.perf_counter() - start
            warm_up, warm_errors, _ = timed_op(wl, 0, None, -1)
            setup_times.append(before_warm_up + warm_up)
            errors += [f"warm-up {e}" for e in warm_errors]

        tracer = tracing.Tracer() if trace else None
        passes = (None, tracer) if trace else (None,)
        min_rounds = 1 if trace else math.ceil(MIN_OPS / wl.cycle)
        durations = {False: [], True: []}
        steps = failed = rounds = op_id = 0
        loop_start = time.perf_counter()
        while rounds < min_rounds or (time.perf_counter() - loop_start) * (rounds + 1) / rounds <= seconds:
            for pass_tracer in passes:
                for i in range(rounds * wl.cycle, (rounds + 1) * wl.cycle):
                    elapsed, op_errors, op_steps = timed_op(wl, i, pass_tracer, op_id)
                    op_id += 1
                    durations[pass_tracer is not None].append(elapsed)
                    steps += op_steps
                    failed += bool(op_errors)
                    errors += op_errors
            rounds += 1
        attempted = op_id
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = [f"workload {name}  seed {seed}  trace {trace}  ops {attempted}  cycles {rounds}"]
    if trace:
        traced, untraced = durations[True], durations[False]
        overhead = statistics.fmean(traced) - statistics.fmean(untraced)
        metrics = tracer.layer_metrics(len(traced), overhead, overhead / statistics.fmean(untraced))
        units = tracing.per_layer_units()
        trace_path = out_dir / f"trace-{name}-seed{seed}.json"
        tracer.write(trace_path, stamp or {})
        lines.append(f"spans {len(tracer.spans)} written to {trace_path}")
    else:
        ops = durations[False]
        busy = sum(ops)
        tail_value, tail_pct = tail(ops)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": len(ops) / busy,
            "op_s_p50": statistics.median(ops),
            "op_s_tail": tail_value,
            "steps_per_s": steps / busy,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
        notes = {
            "setup_s": f"median of {len(setup_times)}: " + ", ".join(f"{t:.3f}" for t in setup_times),
            "op_s_tail": f"p{tail_pct:g} of {len(ops)} ops, {len(ops) * (1 - tail_pct / 100):.1f} beyond",
            "ok_frac": f"fail_frac {failed / attempted:g} ({failed} of {attempted} ops failed)",
        }
    for key, value in metrics.items():
        note = "" if trace else notes.get(key, "")
        lines.append(f"{key:<45} {value:>14.6g} {units[key]:<9} {note}".rstrip())
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    return result, lines, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not program_present():
        print(f"error: no program at {SRC / 'qconsensus'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    stamp = environment(args.seed)
    if stamp["blas_threads"] is None or stamp["blas_threads"] > stamp["nproc"]:
        print(
            f"error: BLAS threads {stamp['blas_threads']} unknown or above nproc {stamp['nproc']}; "
            "set OPENBLAS_NUM_THREADS",
            file=sys.stderr,
        )
        return 3
    print("stamp " + json.dumps(stamp))
    result, lines, errors = run_workload(args.workload, args.seed, args.seconds, args.trace, stamp=stamp)
    for error in errors[:10]:
        print(f"check failed: {error}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
