"""Per-step cost of one pair channel by family and register size, and one m=12 run.

    python3 benchmarks/apply_scaling.py [--src DIR] [--sizes 4 6 8 10 12] [--run-m 12] [--out FILE]

Imports `qconsensus` from `--src` (default: `src/` of this checkout), so the
same script measures any checkout of the package that has the buffered pair
kernel (`qcore._pair_step` and `qcore._apply_pairs`), the two-part anchor
(`qcore._Anchor`), the reduced Monte-Carlo trial
(`simulator._gap_gather` over `qcore._gather_tables`), the carried-layout
record (`simulator._record` and `symmetry._readout`) and
`dynamics.certify_family`.
For every m in `--sizes` and every family it times, on the pair
(m//2, m//2 + 1) and a seeded dense state:

* build_s: constructing the channel (`neighborhood_channel`);
* apply_s: one `apply_channel(..., validate=False)`;
* validate_s: one `validate_density_matrix` of the output, the Cholesky
  "anchor" that a validated `run` makes on its input, at its last step and
  whenever its positivity debt passes the budget; validate_prelude_s and
  validate_factorize_s split it into its two parts (`qcore._Anchor`): the
  O(d^2) prelude (Hermiticity and trace checks, the shifted copy and the
  closed-form debt) and the O(d^3) Cholesky factorization;
* purity_s: one `purity` of the output;
* verify_s: one in-process `qconsensus verify --family <family> --m <m>`
  (the operator certificates of `dynamics.certify_family` on the m-site
  complete graph), for m <= 6 only;
* convergence_s: one end-to-end `simulator.convergence_probability` on the
  m-site path graph from the seeded state (CONVERGENCE_TRIALS trials of
  CONVERGENCE_HORIZON steps, gamma CONVERGENCE_GAMMA), for m <= 8 only;
* trial_step_s: one step of a `convergence_probability` trial on the m-site
  path graph, the time of one CONVERGENCE_HORIZON-step trial divided by its
  steps.  A gossip trial is the pair kernel `qcore._apply_pairs` on the
  complex state (for m <= 8 only), so the time holds a
  1/CONVERGENCE_HORIZON share of the trial's final return to canonical
  order; trial_matmul_s times its matmul alone (16x16 superoperator times
  the float64 (16, d^2/16) view), which splits the step into its transposed
  copy and its product.  An ssc or smc trial (for m <= 10) is one gather,
  np.add.reduce(coef * v[idx]), on the trial_entries entries of Re(rho) that
  its gap reads and that every channel keeps closed (C(2m, m) for ssc, 2^m
  for smc), and trial_tables_s times building those gather tables
  (`simulator._gap_gather`), which every `convergence_probability` call does once.
* run_step_s: one anchor-free step of a validated `simulator.run` on the
  m-site path graph, for m <= 10 only: the pair-kernel step in the carried
  layout, the record and the trace check.  It is the difference of the
  median times of a RUN_BASE_STEPS-step and a (RUN_BASE_STEPS +
  RUN_EXTRA_STEPS)-step cyclic run, divided by RUN_EXTRA_STEPS.  Both anchor
  on their input and last state, and from d = `simulator.OVERLAP_MIN_DIM` on
  (with one BLAS thread and two usable cores, see `simulator.run`) both
  runs are long enough for their steps to hide the input's
  factorization, which runs on the calling thread while a worker steps; a
  1-step run would hide less of it and under-count a step.
* validated_run_s: one end-to-end validated `simulator.run` of
  VALIDATED_RUN_STEPS cyclic steps on the m-site path graph, for m <= 10
  only (at m = 9 the shape of the benchmark's traj_m9 op).

Each per-m row also holds two family-independent times on the seeded state:

* record_s: what every trajectory step records, `simulator._record` on the
  carried layout (the diagonal take, the Dicke sector sums, purity, S and the
  P_smc corners);
* fixed_point_s: one `symmetry.gossip_fixed_point`, for m <= 8 only.

Each is the median of several repeats.  With `--run-m M` it also runs
`simulator.run` for one cyclic sweep of the ssc family on an M-site path graph
with validation on, from a rank-16 random state (cheap to draw at any size),
and reports seconds per step and the peak resident memory of the process.
The result is printed as JSON, and written to `--out` when given.  BLAS runs
on one thread unless OPENBLAS_NUM_THREADS is set.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("gossip", "ssc", "smc")
CONVERGENCE_TRIALS, CONVERGENCE_HORIZON, CONVERGENCE_GAMMA = 20, 100, 0.05
RUN_BASE_STEPS, RUN_EXTRA_STEPS = 17, 32
VALIDATED_RUN_STEPS = 8


def repeats_for(m: int) -> int:
    return 20 if m <= 8 else 5 if m <= 10 else 3


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def low_rank_density(seed: int, dim: int, rank: int = 16) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def verify_fn(kind: str, m: int):
    """One in-process `verify` of the family at size m, its output discarded; raises unless it passes."""
    from qconsensus.cli import main

    def verify():
        with contextlib.redirect_stdout(io.StringIO()):
            if main(["verify", "--family", kind, "--m", str(m)]) != 0:
                raise RuntimeError(f"verify --family {kind} --m {m} did not pass")

    return verify


def trial_split(family, topology, rho: np.ndarray, repeats: int) -> dict:
    """Per-step time of one seeded trial as `convergence_probability` runs it, and its split (see the module docstring)."""
    from qconsensus.dynamics import build_channels
    from qconsensus.qcore import _apply_pairs
    from qconsensus.simulator import _gap_gather

    channels = build_channels(family, topology)
    picks = np.random.default_rng(0).integers(len(channels), size=CONVERGENCE_HORIZON)
    if family.kind != "gossip":
        kept, tables, _ = _gap_gather(family, channels, topology.m)
        v0 = rho.real.reshape(-1)[kept]

        def gather_trial():
            v = v0
            for i in picks:
                idx, coef = tables[i]
                v = np.add.reduce(coef * v[idx])

        return {
            "trial_step_s": median_time(gather_trial, repeats) / len(picks),
            "trial_entries": len(kept),
            "trial_tables_s": median_time(lambda: _gap_gather(family, channels, topology.m), repeats),
        }
    trial = [(channels[i], channels[i].superop) for i in picks]
    front = np.ascontiguousarray(rho.reshape(16, -1)).view(np.float64)
    superop = channels[0].superop
    return {
        "trial_step_s": median_time(lambda: _apply_pairs(rho, trial), repeats) / len(trial),
        "trial_matmul_s": median_time(lambda: superop @ front, repeats),
    }


def run_step_time(family, topology, rho: np.ndarray, repeats: int) -> float:
    """Seconds per anchor-free step of a validated cyclic run."""
    from qconsensus.simulator import Schedule, run

    times = [
        median_time(lambda: run(rho, topology, family, Schedule.cyclic(), steps, validate=True), repeats)
        for steps in (RUN_BASE_STEPS, RUN_BASE_STEPS + RUN_EXTRA_STEPS)
    ]
    return (times[1] - times[0]) / RUN_EXTRA_STEPS


def record_fn(m: int, rho: np.ndarray):
    """The per-step record of a run on rho's image under one pair step."""
    from qconsensus import simulator
    from qconsensus.dynamics import ChannelFamily, neighborhood_channel
    from qconsensus.symmetry import _readout

    channel = neighborhood_channel(ChannelFamily.ssc(), (m // 2, m // 2 + 1), m)
    buffers = np.empty_like(rho), np.empty_like(rho)
    flat = simulator._pair_step(rho.reshape((2,) * (2 * m)), None, channel, channel.superop, *buffers)[0].reshape(-1)
    table = _readout(m, 1 << (m - 2))
    return lambda: simulator._record(1, flat, flat[table.diag], table, None)


def layer_times(m: int) -> dict:
    """Median per-family layer times at size m, plus record and fixed-point times."""
    from qconsensus.dynamics import ChannelFamily, neighborhood_channel
    from qconsensus.network import NetworkTopology
    from qconsensus.qcore import _Anchor, apply_channel, purity, validate_density_matrix
    from qconsensus.simulator import Schedule, convergence_probability, random_density, run
    from qconsensus.symmetry import gossip_fixed_point

    pair = (m // 2, m // 2 + 1)
    rho = random_density(m, 1 << m) if m <= 10 else low_rank_density(m, 1 << m)
    repeats = repeats_for(m)
    path = NetworkTopology(m=m, neighborhoods=tuple((i, i + 1) for i in range(1, m)))
    out = {}
    for kind in FAMILIES:
        family = ChannelFamily(kind)
        channel = neighborhood_channel(family, pair, m)
        after = apply_channel(channel, rho, validate=False)
        out[kind] = {
            "build_s": median_time(lambda: neighborhood_channel(family, pair, m), repeats),
            "apply_s": median_time(lambda: apply_channel(channel, rho, validate=False), repeats),
            "validate_s": median_time(lambda: validate_density_matrix(after), repeats),
            "validate_prelude_s": median_time(lambda: _Anchor(after), repeats),
            "validate_factorize_s": median_time(_Anchor(after).cholesky, repeats),
            "purity_s": median_time(lambda: purity(after), repeats),
            "repeats": repeats,
        }
        if m <= 6:
            out[kind]["verify_s"] = median_time(verify_fn(kind, m), repeats)
        if m <= 10:
            out[kind]["run_step_s"] = run_step_time(family, path, rho, repeats)
            validated = (rho, path, family, Schedule.cyclic(), VALIDATED_RUN_STEPS)
            out[kind]["validated_run_s"] = median_time(lambda: run(*validated), repeats)
        if m <= 8:
            args = (rho, path, family, CONVERGENCE_GAMMA, CONVERGENCE_HORIZON, CONVERGENCE_TRIALS, 0)
            out[kind]["convergence_s"] = median_time(lambda: convergence_probability(*args), min(repeats, 5))
        if m <= (8 if kind == "gossip" else 10):
            out[kind].update(trial_split(family, path, rho, repeats))
        del channel, after
    out["record_s"] = median_time(record_fn(m, rho), repeats)
    if m <= 8:
        out["fixed_point_s"] = median_time(lambda: gossip_fixed_point(rho, m), repeats)
    return out


def sweep_run(m: int) -> dict:
    """One cyclic ssc sweep of an m-site path graph, validation on."""
    from qconsensus.dynamics import ChannelFamily
    from qconsensus.network import NetworkTopology
    from qconsensus.simulator import Schedule, run

    topology = NetworkTopology(m=m, neighborhoods=tuple((i, i + 1) for i in range(1, m)))
    rho0 = low_rank_density(0, 1 << m)
    steps = m - 1
    start = time.perf_counter()
    result = run(rho0, topology, ChannelFamily.ssc(), Schedule.cyclic(), steps, validate=True)
    elapsed = time.perf_counter() - start
    last = result.records[-1]
    return {
        "m": m,
        "family": "ssc",
        "steps": steps,
        "validate": True,
        "initial_state": "rank-16 random density, seed 0",
        "total_s": elapsed,
        "s_per_step": elapsed / steps,
        "final_trace": float(np.trace(result.final_state).real),
        "s_drift": abs(last.s_expectation - result.records[0].s_expectation),
        "final_v_total": last.v_total,
        "final_psd_debt": last.psd_debt,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--sizes", type=int, nargs="*", default=[4, 6, 8, 10, 12])
    parser.add_argument("--run-m", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    result = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "numpy": np.__version__,
            "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        },
        "pair": "(m//2, m//2 + 1)",
        "per_step": {str(m): layer_times(m) for m in args.sizes},
    }
    if args.run_m is not None:
        result["run"] = sweep_run(args.run_m)
    text = json.dumps(result, indent=1)
    if args.out is not None:
        args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
