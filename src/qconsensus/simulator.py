"""Trajectory execution, randomized scheduling, measurements, and protocols.

A trajectory applies one neighborhood channel per step, either cycling
through a fixed order or drawing neighborhoods i.i.d. from a probability
distribution, and logs purity, the conserved-observable expectation, the
Lyapunov values of both consensus families, and the relevant populations.
Monte-Carlo estimation uses per-trial random streams derived from a master
seed, so results are reproducible and independent of trial execution order.
"""

from __future__ import annotations

import functools
import math
import os
import threading
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import ChannelFamily, build_channels
from .network import InputError, NetworkTopology, _as_count, _as_index, _as_nonnegative, _as_real, _as_site, _as_state, is_connected
from .qcore import PSD_ATOL, _Anchor, _apply_pairs, _canonical, _gamma, _gather_step, _gather_tables, _pair_step, apply_error_bound, check_trace, purity, validate_density_matrix
from .symmetry import (
    _readout,
    _sector_readout,
    _sector_sums,
    dicke_populations,
    excitation_counts,
    gossip_fixed_point,
    site_bits,
    v_smc,
    v_total,
)

__all__ = [
    "Schedule",
    "TrajectoryRecord",
    "RunResult",
    "random_density",
    "run",
    "lyapunov_gap",
    "convergence_probability",
    "measure_local_z",
    "measure_global_observable",
    "apply_flip",
    "MeasurementEvent",
    "PreparationResult",
    "prepare_dicke",
    "trajectory_csv_lines",
    "write_trajectory_csv",
]

MEASUREMENT_PROBABILITY_FLOOR = 1e-12
EARLY_STOP_THRESHOLD = 1e-10
# A validated run factorizes its state again once the certified positivity
# debt would pass this bound (see run).
PSD_DEBT_BUDGET = PSD_ATOL / 2
# Validated runs on at least this many dimensions factorize their input while
# a worker thread makes the steps, if the worker has a core of its own (see
# run and _spare_core).  Measured on two cores with one BLAS thread, an 8-step
# run loses about 0.8 ms to the thread handoff at m = 7 and gains about 1 ms
# at m = 8 (13 ms at m = 9).
OVERLAP_MIN_DIM = 256
# A run on d < OVERLAP_MIN_DIM dimensions from a start without coherence
# between excitation sectors evolves its zero-coherence entries alone
# (_Sectors) when it makes at least this many steps, divided by d, per gather
# table it needs (see _sectors_pay).
SECTOR_TABLE_WORK = 1024


@dataclass(frozen=True)
class Schedule:
    """Neighborhood selection rule: a fixed cyclic order or seeded i.i.d. draws.

    Cyclic mode repeats `order` (indices into the topology's neighborhood
    list); the order must cover every neighborhood at least once, and `None`
    means plain round robin.  Random mode draws independently each step from
    the topology's selection weights (uniform if unset), using a generator
    seeded with `seed`.  Each mode takes only its own field: a cyclic seed or
    a random order raises InputError.
    """

    mode: str
    order: tuple[int, ...] | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.mode not in ("cyclic", "random"):
            raise InputError(f"unknown schedule mode {self.mode!r}, expected cyclic or random")
        if self.mode == "cyclic":
            if self.seed is not None:
                raise InputError(f"cyclic schedules take no seed, got {self.seed!r}")
            if self.order is not None:
                order = tuple(_as_index(i, "cyclic order entry") for i in self.order)
                if not order:
                    raise InputError("cyclic order must be nonempty")
                object.__setattr__(self, "order", order)
        elif self.order is not None:
            raise InputError(f"random schedules take no order, got {self.order!r}")
        elif self.seed is None:
            raise InputError("random schedules need a seed")
        else:
            object.__setattr__(self, "seed", _as_nonnegative(self.seed, "schedule seed"))

    @classmethod
    def cyclic(cls, order=None) -> "Schedule":
        return cls(mode="cyclic", order=None if order is None else tuple(order))

    @classmethod
    def random(cls, seed: int) -> "Schedule":
        return cls(mode="random", seed=seed)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Per-step diagnostics logged after each channel application.

    psd_debt is the certified positivity debt of a validated run after the
    step (see run), and None when the run is not validated.
    """

    step: int
    purity: float
    s_expectation: float
    v_total: float
    v_smc: float
    dicke_populations: tuple[float, ...]
    smc_population: float
    psd_debt: float | None


@dataclass
class RunResult:
    records: list[TrajectoryRecord]
    final_state: np.ndarray


def random_density(seed: int, dim: int) -> np.ndarray:
    """Random density matrix: uniform simplex spectrum in a Haar-random basis.

    The spectrum is drawn uniformly from the probability simplex and the
    eigenbasis from the rotation-invariant distribution on unitaries
    (QR orthonormalization of a complex Gaussian matrix with the standard
    phase fix).  Deterministic for a given seed, a non-negative integer.
    """
    dim = _as_index(dim, "dimension")
    if dim < 2:
        raise InputError(f"need dim >= 2, got {dim}")
    rng = np.random.default_rng(_as_nonnegative(seed, "random_density seed"))
    spectrum = rng.dirichlet(np.ones(dim))
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    q = q * phases.conj()
    rho = (q * spectrum) @ q.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    validate_density_matrix(rho)
    return rho


def _random_picks(topology: NetworkTopology, seed: int, steps: int) -> np.ndarray:
    """`steps` i.i.d. neighborhood indices from default_rng(seed), weighted by the topology (uniform if unset)."""
    n = len(topology.neighborhoods)
    # An explicit uniform p: choice(n, p=None) draws a different stream.
    q = np.full(n, 1.0 / n) if topology.probabilities is None else np.array(topology.probabilities)
    return np.random.default_rng(seed).choice(n, size=steps, p=q)


def _picks(schedule: Schedule, topology: NetworkTopology, steps: int):
    """The neighborhood index of each of `steps` steps: the cyclic order repeated, or the random draws."""
    if schedule.mode == "random":
        return _random_picks(topology, schedule.seed, steps)
    n = len(topology.neighborhoods)
    order = schedule.order if schedule.order is not None else tuple(range(n))
    if any(i < 0 or i >= n for i in order):
        raise InputError(f"cyclic order {order} has indices outside 0..{n - 1}")
    if set(order) != set(range(n)):
        raise InputError("cyclic order must cover every neighborhood at least once")
    return [order[t % len(order)] for t in range(steps)]


def lyapunov_gap(family: ChannelFamily, rho: np.ndarray, m: int, *, gossip_target: np.ndarray | None = None) -> float:
    """The family's Lyapunov value minus its limit, which its dynamics drive to zero.

    ssc: v_total - m (zero iff supported on the Dicke span); smc: v_smc.
    gossip: purity(rho) - purity(gossip_target), the caller supplying the
    permutation average gossip_target = P(rho0).  P is a Hilbert-Schmidt-
    orthogonal projector that every gossip map leaves unchanged, so whenever
    P(rho) = gossip_target this is ||rho - gossip_target||^2 exactly.  Like
    v_total - m it is a difference of O(1) values, so near zero it reads +-1e-16.
    """
    if family.kind == "ssc":
        return v_total(rho, m) - m
    if family.kind == "smc":
        return v_smc(rho, m)
    if gossip_target is None:
        raise InputError("gossip convergence needs the permutation-average target state")
    return purity(_as_state(rho, m)) - purity(gossip_target)


def run(
    rho0: np.ndarray,
    topology: NetworkTopology,
    family: ChannelFamily,
    schedule: Schedule,
    steps: int,
    *,
    validate: bool = True,
    early_stop: bool = False,
) -> RunResult:
    """Evolve an initial state for `steps` single-neighborhood channel steps.

    Parameters
    ----------
    rho0 : initial density matrix on 2**m dimensions
    topology : interaction graph; a disconnected graph triggers a warning
        (the run proceeds but convergence is not guaranteed)
    family : which channel family to apply
    schedule : cyclic or random neighborhood selection
    steps : number of channel applications (>= 1)
    validate : keep every state within the density-matrix invariants of
        validate_density_matrix, and raise ValueError when one fails; disable
        for benchmark runs.  An unvalidated run checks only the shape: it
        evolves the Hermitian part (rho0 + rho0^H)/2 of any start, so a
        non-Hermitian one returns the evolution of that part
    early_stop : stop once the family's Lyapunov gap (lyapunov_gap: a
        record field minus its limit) stays below EARLY_STOP_THRESHOLD for
        2*m consecutive steps

    Validation does not factorize every state.  It checks the trace each
    step, and carries a certified positivity debt: a bound, in trace norm, on
    the distance from the computed state to a positive semidefinite matrix.
    If rho_t = sigma_t + e_t with sigma_t >= 0, the computed next state is
    E(sigma_t) + E(e_t) + r_{t+1}, where E is the exactly CPTP pair map,
    E(sigma_t) >= 0, ||E(e_t)||_1 <= ||e_t||_1 because CPTP maps contract the
    trace norm (Perez-Garcia, Wolf, Petz and Ruskai, J. Math. Phys. 47,
    083506, 2006), and ||r_{t+1}||_1 <= apply_error_bound(channel) *
    ||rho_t||_F, with ||rho_t||_F^2 the purity already recorded.  So each
    step adds that product to the debt.  validate_density_matrix (a Cholesky
    "anchor") checks the input, any state whose debt would pass
    PSD_DEBT_BUDGET, and the last executed state, and resets the debt.  A
    state with debt at most PSD_DEBT_BUDGET = PSD_ATOL/2 has every eigenvalue
    of its Hermitian part >= -debt and a Hermiticity residual <= debt, so it
    passes validate_density_matrix's rule without being factorized.  The
    certificate assumes the kernel computes the stored superoperator's
    product; a fault in it surfaces at the next anchor, at the latest at the
    last step.  A failure inside the run names the family, the step, its
    edge, and the steps since the last passing anchor.

    The run carries one real matrix, X = Re H + Im H, where H is the
    Hermitian part of the start (_real_form): d^2 float64 entries, half the
    bytes and flops of a complex step.  The three superoperators are real and
    commute with transposition, so the symmetric Re rho and the antisymmetric
    Im rho evolve apart, and X evolves as rho does.  The record reads X with
    the formulas it would use on rho (_State).  Anchors and the final state
    rebuild rho = (X + X^T)/2 + i (X - X^T)/2, which is exactly Hermitian,
    so an anchor on it skips the Hermiticity check.  The map from X to rho
    is a linear isometry, so apply_error_bound per unit ||rho||_F holds
    unchanged.  Forming X and each rebuild round every entry at most three
    times, so each adds sqrt(d) gamma_3 ||rho||_F to the debt.  A start that
    is Hermitian only within HERMITICITY_ATOL runs from H: the input
    anchor's debt already holds ||rho - H|| (validate_density_matrix's
    ||rho - H||_F term).  final_state is complex128 and exactly Hermitian.

    The state is one of two objects with the same five methods (load, step,
    record, anchor, final).  Each allocates its buffers when built, and
    load() forms X in them at the start of the loop.  A start whose entries
    (r, c) with |r| != |c| are all exactly 0, such as a basis string, a
    Dicke state or an output of measure_global_observable, can run on
    _Sectors: every Kraus operator of the three families shifts the row and
    column excitation counts by the same amount, so only its C(2m, m)
    entries with |r| = |c| move, one gather per step.  It does when _sectors_pay: the state has fewer than
    OVERLAP_MIN_DIM dimensions, where the gather tables of the channels the
    schedule picks stay within a few MB (beyond, they outgrow _Dense's
    buffers), and the run makes at least SECTOR_TABLE_WORK / d steps per
    table.  Every other start runs on _Dense, the whole matrix in the pair
    kernel's carried layout (see _layout for the check, O(d) on a
    Haar-random start).  apply_error_bound covers a gather step too: each gathered
    output is the dense kernel's 16-term row product with its exactly-zero
    terms dropped, so its rounding is within gamma_K <= gamma_16 of the same
    terms, and the entries outside the sectors stay exactly 0 in the dense
    evolution as well.  Anchors and the final state scatter the sector
    entries of X into a dense matrix and rebuild rho from it, so both
    layouts keep the dense anchor.

    The steps never read the input's factorization, only its debt, which a
    Cholesky that succeeds fixes in closed form beforehand (qcore._Anchor).
    So a validated run on at least OVERLAP_MIN_DIM dimensions starts the step
    loop (forming X, pair steps, records, trace checks) on one worker thread
    once the input passes the O(d^2) Hermiticity and trace checks, and
    factorizes the input on the calling thread meanwhile, provided BLAS runs
    one thread per call and the process may use two cores (_spare_core).  Other runs run
    the same loop inline: on smaller states the thread handoff costs more
    than the overlap saves, and without a spare core the worker's matmul and
    the caller's Cholesky share one (measured at m = 9: 7% slower with one
    usable core, 12% slower with two BLAS threads on two cores).
    The worker runs the loop up to the first state due for an anchor (the
    last or early-stop step, or one past the budget) and pauses it there;
    once the input's Cholesky passes, the calling thread resumes the same
    loop to its end, so it makes every rebuild of rho and every
    factorization.  The channels, the gather tables and the state object
    with its buffers are built on the calling thread before the worker
    starts (the tables once, a rerun reuses them), so the worker allocates
    no state-sized array: glibc gives
    each thread its own malloc arena, and state-sized blocks freed in the
    worker's arena would stay resident where the caller cannot reuse them.
    Errors come in the order of the other entry points: the warning for a
    disconnected graph first, then the start's shape and the schedule's
    order, then the input's own error (a worker fault is
    raised only once the input passes), then the errors of the loop.  The
    early-stop gossip target is computed only after the input's O(d^2)
    checks, so an input that fails them never pays for it.  If the input's
    Cholesky fails, the worker stops at its next step, and eigvalsh either
    raises the input's error or gives the debt with which the loop reruns
    inline.  No thread outlives the call.

    Returns
    -------
    RunResult with one TrajectoryRecord per executed step (psd_debt holds the
    debt after the step, None without validation) and the final state.
    """
    steps = _as_index(steps, "steps")
    if steps < 1:
        raise InputError(f"need steps >= 1, got {steps}")
    m = topology.m
    if not is_connected(topology):
        warnings.warn("interaction graph is not connected; convergence is not guaranteed")
    rho = _as_state(rho0, m)
    picks = _picks(schedule, topology, steps)

    @functools.cache
    def layout():  # after the input's checks, once
        channels = build_channels(family, topology)
        return channels, _layout(rho, m, channels, picks)

    def loop(debt, halt=None):  # a fresh state per loop, so a rerun starts from rho
        gap = None
        if early_stop:  # the gap is the record field minus its limit (see lyapunov_gap)
            gap = ("v_total", m) if family.kind == "ssc" else ("v_smc", 0.0) if family.kind == "smc" else (
                "purity", purity(gossip_fixed_point(rho, m)))
        channels, state = layout()
        return _steps(state(), channels, topology, family, picks, gap, debt, halt)

    if validate and len(rho) >= OVERLAP_MIN_DIM and _spare_core():
        steps_loop = _overlapped(loop, _Anchor(rho))
    else:
        steps_loop = loop(validate_density_matrix(rho) if validate else None)
    try:
        next(steps_loop)  # to the loop's end: it pauses at most once, on the worker
    except StopIteration as done:
        return RunResult(*done.value)


def _usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _blas_threads(environ, cpus):
    """The threads numpy's OpenBLAS runs per call: the first positive OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS, else every usable core."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return min(int(value), cpus)
    return cpus


# OpenBLAS reads its thread count when numpy loads, which is before this line.
_BLAS_THREADS = _blas_threads(os.environ, _usable_cpus())


def _spare_core():
    """Whether a worker thread's matmul gets a core beside the caller's Cholesky: one BLAS thread per call, two usable cores or more."""
    return _BLAS_THREADS == 1 and _usable_cpus() >= 2


def _layout(rho: np.ndarray, m: int, channels, picks):
    """A callable giving run's fresh state for rho: _Sectors when rho has no coherence between excitation sectors and they pay, else _Dense.

    Row 0 is read first, and B_0 holds only its first entry, so a start with
    coherence there (a Haar-random one) pays O(d) for the check.  Otherwise
    rho is zero-coherence exactly when its C(2m, m) sector entries hold all
    its nonzero entries.  The gather tables are built here, for the channels
    that `picks` uses, and shared by every state the callable gives.
    """
    used = [channels[i] for i in sorted(set(picks))]
    if not rho[0, 1:].any() and _sectors_pay(len(rho), len(used), len(picks)):
        positions = _readout(m, 1 << m).sectors
        if np.count_nonzero(rho.reshape(-1)[positions]) == np.count_nonzero(rho):
            kept, tables = _gather_tables(used, positions)
            assert len(kept) == len(positions)  # the closure of the zero-coherence class is itself
            tables = {ch.sites: table for ch, table in zip(used, tables)}
            return lambda: _Sectors(rho, m, tables)
    return lambda: _Dense(rho, m)


def _sectors_pay(d: int, tables: int, steps: int) -> bool:
    """Whether a zero-coherence start on d dimensions runs faster on _Sectors, at a bounded cost in memory, for `tables` gather tables and `steps` steps.

    Building a table costs more dense steps the smaller the state, and each
    step that uses it saves most of a dense step, so a run needs at least
    SECTOR_TABLE_WORK / d steps per table: 64 at m = 4, 16 at m = 6, 8 at
    m = 7.  Measured on two cores with one BLAS thread (path, ring and
    complete graphs, all three families, validated or not, from a basis
    string; both layouts carrying X, see _real_form), a sector run takes a
    median 1.37 times as long as the dense one at 4 steps per table at m = 4
    (1.30 to 1.79) and 1.30 at m = 5 (1.19 to 1.43), 1.03 at 16 steps at
    m = 4 (0.94 to 1.36), 0.74 at 16 steps at m = 6 (0.61 to 0.87) and 0.71
    at 8 steps at m = 7 (0.54 to 1.12).  A table holds K (2 or 3) intp indices and
    float64 coefficients per zero-coherence entry, 0.39 to 0.59 of 16 d^2
    bytes at m = 8, so from OVERLAP_MIN_DIM on the tables of any connected
    graph take more than all of _Dense's buffers (32 d^2 bytes); below it the
    largest, m = 7's complete graph under smc, take 3.5 MB.
    """
    return d < OVERLAP_MIN_DIM and steps * d >= SECTOR_TABLE_WORK * tables


def _real_form(rho: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """X = Re H + Im H of the Hermitian part H = (rho + rho^H) / 2 of the complex d x d rho, into the real d x d `out`; returns out.

    Re H is symmetric and Im H antisymmetric, and the two are orthogonal, so
    X holds H in d^2 reals with ||X||_F = ||H||_F, and H = (X + X^T) / 2 +
    i (X - X^T) / 2 (_rebuild).  X = ((Re rho + Im rho) + (Re rho - Im
    rho)^T) / 2, with the real `scratch` for the second sum; when rho is
    exactly Hermitian the two sums agree entry for entry, so X = Re rho + Im
    rho bit for bit.  Each entry rounds at most three times: ||X - X_H||_F
    <= sqrt(2) gamma_2 ||rho||_F.
    """
    np.add(rho.real, rho.imag, out=out)
    np.subtract(rho.real, rho.imag, out=scratch)
    out += scratch.T
    out *= 0.5
    return out


def _rebuild(x: np.ndarray, xt: np.ndarray, out: np.ndarray) -> np.ndarray:
    """rho = (X + X^T) / 2 + i (X - X^T) / 2 into the complex `out`, given X and X^T as arrays of out's shape; returns out.

    fl(a + b) = fl(b + a) and fl(a - b) = -fl(b - a), so rho equals rho^H
    entry for entry, and each entry rounds once: ||rho - rho_X||_F <=
    u ||X||_F for the exact image rho_X of X.
    """
    np.add(x, xt, out=out.real)
    np.subtract(x, xt, out=out.imag)
    halves = out.view(np.float64)  # out is C-contiguous; halving each part is exact
    halves *= 0.5
    return out


class _State:
    """What run's two state layouts share: the record, read from the layout's flat real entries x of X (_real_form) through its _Readout table, and the anchor.

    Re rho's entries are X's symmetric part and Im rho's its antisymmetric
    part, so the diagonal, the P_smc corners and every sum over a symmetric
    set of entries (a Dicke sector block) read X as they read rho, and the
    purity is ||X||^2.
    """

    def norm(self) -> float:
        """||rho||_F, the square root of the purity: the entries a layout leaves out are 0."""
        return math.sqrt(purity(self.x))

    def anchor(self) -> float:
        """The debt of the rebuilt rho, final() (an exactly Hermitian one: qcore._Anchor skips that check), or ValueError."""
        return _Anchor(self.final(), hermitian=True).verdict()

    def record(self, t: int, debt: float | None) -> TrajectoryRecord:
        """The diagnostics after step t, with psd_debt = debt; the trace is checked when debt is set."""
        flat = self.x.reshape(-1)
        diag = flat[self.table.diag]
        if debt is not None:
            check_trace(diag)
        pops = tuple(_sector_sums(flat, self.table).tolist())
        smc_pop = float(flat[0] + flat[-1])  # |0..0> and |1..1> stay first and last in both layouts
        s_exp = float(np.dot(self.table.s_weights, diag))
        return TrajectoryRecord(t, purity(flat), s_exp, len(pops) - sum(pops), 1.0 - smc_pop, pops, smc_pop, debt)


class _Dense(_State):
    """run's state: X (_real_form) as a float64 (2,)*2m tensor in the pair kernel's carried layout (qcore._pair_step).

    The layout is a site relabeling of X with the last step's pair first,
    so a step is one transposed copy and one matmul, into two real state
    buffers the object allocates, on the thread that builds it, beside one
    complex buffer for rho: 32 d^2 bytes in all.  load() forms X in the
    product buffer, with the other as scratch, at the loop's start: on the
    worker thread when run overlaps the input's Cholesky, which hides it.
    Trace, S, purity, P_smc and the Dicke populations are invariant under
    site relabeling, so the record (through the layout's symmetry._readout
    table) and the trace check read the state as it is, and the early-stop
    gap reads the record.  Each anchor rebuilds rho in canonical order into
    the complex buffer (_rebuild, from X and X^T, the latter copied into the
    transposed-copy buffer, which the next step overwrites); the last
    anchored rho is the final state.
    """

    def __init__(self, rho: np.ndarray, m: int):
        self.front, self.out, self.rho = np.empty(rho.shape), np.empty(rho.shape), np.empty(rho.shape, complex)
        self.start, self.x = rho, self.out.reshape((2,) * (2 * m))
        self.layout, self.fresh, self.table = None, False, _readout(m, 1 << (m - 2))

    def load(self):
        _real_form(self.start, self.out, self.front)

    def step(self, channel):
        self.x, self.layout = _pair_step(self.x, self.layout, channel, channel.superop, self.front, self.out)
        self.fresh = False

    def final(self) -> np.ndarray:
        """rho in canonical order: the last anchored one when no step followed it."""
        if not self.fresh:
            m, shape = self.x.ndim // 2, self.x.shape
            transposed = _canonical(self.x, self.layout[m:] + self.layout[:m], self.front)  # X^T
            _rebuild(self.x.transpose(self.layout), transposed.reshape(shape), self.rho.reshape(shape))
            self.fresh = True
        return self.rho


class _Sectors(_State):
    """run's state for a start without coherence between excitation sectors: v, the C(2m, m) entries of X (_real_form) with |r| = |c|.

    Every gossip, ssc and smc Kraus operator shifts an entry's row and column
    excitation counts by the same amount, so these entries (the blocks B_k
    on the k-excitation strings) are closed under every step and the others
    stay exactly 0.  v holds the blocks in symmetry._readout's sector order,
    B_0..B_m, each row-major, so the P_smc corners are v[0] and v[-1].  A
    step is one gather (qcore._gather_step) with the channel's
    qcore._gather_tables table, from `tables` (keyed by sites), between two
    real vectors and through one (K, N) buffer; the record reads v through
    symmetry._sector_readout.  load() forms v from X (_real_form, through
    the dense real matrix).  An anchor and the final state scatter v into
    that matrix, zeroed, and rebuild rho from it (_rebuild).  The
    buffers and those matrices are allocated here, on the thread that builds
    the object.
    """

    def __init__(self, rho: np.ndarray, m: int, tables):
        self.positions, self.table, self.tables = _readout(m, 1 << m).sectors, _sector_readout(m), tables
        self.start, self.scattered, self.rho = rho, np.empty(rho.shape), np.empty(rho.shape, complex)
        self.x, self.out = np.empty(len(self.positions)), np.empty(len(self.positions))
        self.buf = np.empty((max(len(idx) for idx, _ in tables.values()), len(self.x)))

    def load(self):
        # rho's buffer serves as scratch here; every rebuild overwrites all of it.
        np.take(_real_form(self.start, self.scattered, self.rho.real), self.positions, out=self.x)
        self.scattered[:] = 0.0

    def step(self, channel):
        self.x, self.out = _gather_step(self.x, self.tables[channel.sites], self.buf, self.out), self.x

    def final(self) -> np.ndarray:
        """rho as a dense matrix: v scattered into the zeroed real matrix, whose other entries stay 0, and rebuilt."""
        self.scattered.reshape(-1)[self.positions] = self.x
        return _rebuild(self.scattered, self.scattered.T, self.rho)


def _steps(state, channels, topology, family, picks, gap, debt, halt=None):
    """run's step loop on a fresh _Dense or _Sectors, stepping channels[i] for each i in picks, as a generator that anchors every state where an anchor is due.

    gap is the early-stop (record field, limit) or None, and debt None for a
    run without validation.  The loop's first act is state.load(), which
    forms X from the start.  Returns (records, final state) through
    StopIteration, or None when `halt` is set at the start of a step.  Given
    `halt`, the loop pauses once, with a bare yield, just before its first
    anchor, and then drops `halt`; whoever resumes it makes every anchor.  An
    anchor that fails is raised with the run's step, edge and anchor context.
    """
    state.load()
    if debt is not None:
        step_bounds = [apply_error_bound(ch) for ch in channels]
        # Forming X from the start, and each rebuild of rho from X, rounds
        # every entry at most three times (_real_form, _rebuild).
        real_form_bound = math.sqrt(1 << topology.m) * _gamma(3)
        norm_f = state.norm()
        debt += real_form_bound * norm_f
    records: list[TrajectoryRecord] = []
    quiet = anchored = 0
    for t, idx in enumerate(picks, 1):
        if halt is not None and halt.is_set():
            return None
        state.step(channels[idx])
        try:
            rec = state.record(t, None if debt is None else debt + step_bounds[idx] * norm_f)
            if gap is not None:
                quiet = quiet + 1 if getattr(rec, gap[0]) - gap[1] < EARLY_STOP_THRESHOLD else 0
            stop = quiet >= 2 * topology.m
            if debt is not None and (rec.psd_debt > PSD_DEBT_BUDGET or stop or t == len(picks)):
                if halt is not None:
                    yield
                    halt = None
                rec = replace(rec, psd_debt=state.anchor() + real_form_bound * math.sqrt(rec.purity))
                anchored = t
        except ValueError as exc:
            raise ValueError(
                f"{family.kind} run, step {t} on edge {topology.neighborhoods[idx]}: {exc} "
                f"(last passing anchor at step {anchored}; the fault lies in steps {anchored + 1}..{t})"
            ) from exc
        debt, norm_f = rec.psd_debt, math.sqrt(rec.purity)
        records.append(rec)
        if stop:
            break
    return records, state.final()


def _overlapped(loop, anchor):
    """Start loop(anchor.debt) on a worker thread up to its pause while this thread runs anchor.cholesky().

    Returns the paused loop, for this thread to resume, or raises what the
    worker raised once the input has passed.  When the factorization fails,
    the worker is stopped at its next step and joined, and eigvalsh either
    raises the input's error or gives the debt of a fresh loop, returned
    instead: it runs inline.
    The worker steps and this thread factorizes, not the reverse, since the
    Cholesky's state-sized output and its LAPACK workspace would otherwise
    land in the worker's malloc arena (swapped, the traj_m9 benchmark's peak
    RSS rose about 6% and its op rate did not drop).
    """
    halt, faults = threading.Event(), []
    steps_loop = loop(anchor.debt, halt)

    def work():
        try:
            next(steps_loop)
        except BaseException as exc:  # re-raised on the caller's thread
            faults.append(exc)

    worker = threading.Thread(target=work, name="qconsensus-run-steps")
    worker.start()
    try:
        if not (factorized := anchor.cholesky()):
            halt.set()
        worker.join()
    except BaseException:  # a raising factorization, or an interrupt in it or in the join
        halt.set()
        worker.join()
        raise
    if not factorized:
        return loop(anchor.eigvalsh_debt())
    if faults:
        raise faults[0]
    return steps_loop


def convergence_probability(
    rho0: np.ndarray,
    topology: NetworkTopology,
    family: ChannelFamily,
    gamma: float,
    horizon: int,
    trials: int,
    seed: int,
) -> float:
    """Fraction of randomized trials whose Lyapunov gap is below gamma.

    Trial t draws its neighborhoods i.i.d. from the topology's selection
    distribution (uniform if unset) with the generator seeded by
    SeedSequence(seed).spawn(trials)[t].generate_state(1)[0].  Channels are
    built once per call and a trial keeps no records (_trial_gaps).  Gossip's
    gap is quadratic in rho, so a gossip trial is one pair-kernel call on its
    picks, on run's real X (_real_form), and its gap is
    ||X||^2 - purity(gossip_fixed_point(rho0)).  The ssc and smc gaps are linear, 1 - Tr(P rho), and every ssc
    (smc) pair Kraus operator shifts the excitation count by 0 (-1, 0 or +1),
    so the entries a gap reads close on the C(2m, m) zero-coherence entries
    (the 2^m populations): a trial gathers Re(rho) on them
    (qcore._gather_tables; the superoperators are real), and its gap is
    1 - w @ v.  The superoperators also commute with transposition,
    E(X^T) = E(X)^T, so a symmetric Re(rho) stays symmetric and a trial
    evolves one entry per transposed pair {(r, c), (c, r)}
    ((C(2m, m) + 2^m) / 2 for ssc, 494 of 924 at m = 6; _transpose_fold),
    from (Re rho[r, c] + Re rho[c, r]) / 2, with every gap bit-identical to
    the trial on the whole set.  A trial equals
    run(rho0, ..., Schedule.random(seed=<that seed>), horizon, validate=False)
    plus lyapunov_gap to rounding, with the same hit count.  Raises InputError
    on a disconnected interaction graph.
    """
    if (gamma := _as_real(gamma, "gamma")) <= 0:
        raise InputError(f"need gamma > 0, got {gamma}")
    if (trials := _as_index(trials, "trials")) < 1:
        raise InputError(f"need trials >= 1, got {trials}")
    if (horizon := _as_index(horizon, "horizon")) < 0:
        raise InputError(f"need horizon >= 0, got {horizon}")
    seed = _as_nonnegative(seed, "master seed")
    if not is_connected(topology):
        raise InputError("convergence estimation requires a connected interaction graph")
    rho0 = _as_state(rho0, topology.m)
    validate_density_matrix(rho0)
    return np.count_nonzero(_trial_gaps(rho0, topology, family, horizon, trials, seed) < gamma) / trials


def _trial_gaps(rho0: np.ndarray, topology: NetworkTopology, family: ChannelFamily, horizon: int, trials: int, seed: int) -> np.ndarray:
    """Each trial's final Lyapunov gap, in trial order, for convergence_probability's checked arguments (see there)."""
    m = topology.m
    channels = build_channels(family, topology)
    if family.kind == "gossip":  # the gap is ||X||^2 - purity(target), read on X (_real_form)
        x0 = _real_form(rho0, np.empty(rho0.shape), np.empty(rho0.shape))
        target, steps = purity(gossip_fixed_point(rho0, m)), [(ch, ch.superop) for ch in channels]
    else:
        kept, tables, w = _gap_gather(family, channels, m)
        pairs, whole, tables = _transpose_fold(kept, tables, 1 << m)
        ends = rho0.real.reshape(-1)[pairs]
        v0 = (ends[0] + ends[1]) / 2  # exact for an exactly symmetric Re(rho0)
        buf, out = np.empty((max(len(idx) for idx, _ in tables), len(v0))), np.empty(len(v0))
    gaps = np.empty(trials)
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        picks = _random_picks(topology, int(child.generate_state(1)[0]), horizon)
        if family.kind == "gossip":
            gaps[t] = purity(_apply_pairs(x0, [steps[i] for i in picks])) - target
        else:
            v = v0.copy()
            for i in picks.tolist():  # Python ints index the table list faster than numpy ones
                v, out = _gather_step(v, tables[i], buf, out), v
            gaps[t] = 1.0 - w @ v[whole]
    return gaps


def _gap_gather(family: ChannelFamily, channels, m: int):
    """qcore._gather_tables on the entries the ssc or smc gap reads, ascending: (kept, tables, w), gap = 1 - w @ rho.flat[kept].

    Both entry sets are closed, so kept is the reads: the Dicke-sector
    entries for ssc, of weight 1 / C(m, k), and the populations for smc,
    where the P_smc corners weigh 1.
    """
    d = 1 << m
    if family.kind == "smc":
        reads, w = np.arange(d) * (d + 1), np.zeros(d)
        w[[0, -1]] = 1.0
    else:
        table = _readout(m, d)
        order = np.argsort(table.sectors)
        reads, w = table.sectors[order], np.repeat(table.scale, np.diff(table.starts, append=len(order)))[order]
    return *_gather_tables(channels, reads), w


def _transpose_fold(kept: np.ndarray, tables, d: int):
    """_gap_gather's gathers on one representative per transposed pair {(r, c), (c, r)} of kept: (pairs, whole, tables).

    kept is ascending and closed under transposition, and the channels are
    real and commute with it, as gossip, ssc and smc do.  A pair's
    representative is its upper entry, r <= c, so the diagonal (all of smc's
    set) stands for itself.  pairs is (2, n): the representatives' flat
    positions and their partners'.  whole[j] is the place of kept[j]'s
    representative, so v[whole] is the vector on kept.  A table keeps each
    representative's column of the full table, with every input remapped to
    its representative.  On a symmetric vector an output and its partner sum
    the same products (K = 2 for ssc; a zero-padding term adds an exact 0),
    and a + b = b + a in floating point, so every step on the
    representatives equals the full one bit for bit.
    """
    rows, cols = np.divmod(kept, d)
    partner = cols * d + rows
    upper = kept <= partner
    place = np.cumsum(upper) - 1  # an upper entry's place among the representatives
    whole = place[np.minimum(np.arange(len(kept)), np.searchsorted(kept, partner))]  # the upper one of j and its partner
    reps = np.flatnonzero(upper)
    return np.stack([kept[reps], partner[reps]]), whole, [(whole[idx.take(reps, axis=1)], coef.take(reps, axis=1)) for idx, coef in tables]


def _populations(rho: np.ndarray) -> np.ndarray:
    """The real diagonal of rho; ValueError unless it sums to 1 (check_trace) and no entry is below -PSD_ATOL.

    A Hermitian matrix's least eigenvalue is at most its least diagonal
    entry, so this rejects no state that validate_density_matrix accepts.
    """
    diag = np.real(np.diag(rho))
    check_trace(diag)
    if diag.min() < -PSD_ATOL:
        raise ValueError(f"not positive semidefinite: min population {diag.min():.3e}")
    return diag


def measure_local_z(rho: np.ndarray, site: int, m: int, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Projective sigma_z measurement of one site.

    Returns (outcome, post_state) with outcome +1 for |0> and -1 for |1>,
    sampled by the Born rule.  Outcomes with probability below 1e-12 are
    never sampled.  A trace other than 1 (or NaN), or a population below
    -PSD_ATOL, raises ValueError.
    """
    site = _as_site(site, m)
    rho = _as_state(rho, m)
    diag = _populations(rho)
    mask0 = 1.0 - site_bits(m)[:, site - 1]
    p_plus = float(np.clip(np.dot(mask0, diag), 0.0, 1.0))
    if p_plus < MEASUREMENT_PROBABILITY_FLOOR:
        outcome = -1
    elif p_plus > 1.0 - MEASUREMENT_PROBABILITY_FLOOR:
        outcome = +1
    else:
        outcome = +1 if rng.random() < p_plus else -1
    mask = mask0 if outcome == +1 else 1.0 - mask0
    prob = p_plus if outcome == +1 else 1.0 - p_plus
    post = rho * np.outer(mask, mask) / prob
    return outcome, post


def measure_global_observable(rho: np.ndarray, m: int, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Projective measurement of the conserved observable m*I + sum sigma_z.

    Samples an excitation subspace k (eigenvalue 2*(m-k)) with the Born-rule
    probability and returns (k, renormalized projected state).  Subspaces
    with probability below 1e-12 are never sampled.  A trace other than 1
    (or NaN), or a population below -PSD_ATOL, raises ValueError.
    """
    rho = _as_state(rho, m)
    diag = _populations(rho)
    counts = excitation_counts(m)
    probs = np.bincount(counts, weights=diag, minlength=m + 1)
    probs[probs < MEASUREMENT_PROBABILITY_FLOOR] = 0.0
    probs /= probs.sum()
    k = int(rng.choice(m + 1, p=probs))
    mask = (counts == k).astype(float)
    post = rho * np.outer(mask, mask) / float(np.dot(mask, diag))
    return k, post


def apply_flip(rho: np.ndarray, site: int, m: int) -> np.ndarray:
    """Conjugate by sigma_x on one site: a new array, rho with that site's row and column axes reversed."""
    site = _as_site(site, m)
    rho = _as_state(rho, m)
    return np.flip(rho.reshape((2,) * (2 * m)), (site - 1, m + site - 1)).copy().reshape(rho.shape)


@dataclass(frozen=True)
class MeasurementEvent:
    """One entry of a preparation protocol's measurement log.

    kind is "global" (value = measured excitation count), "site"
    (value = +/-1 outcome of a sigma_z measurement), or "flip" (sigma_x
    applied to the site; value 0).
    """

    kind: str
    site: int | None
    value: int


@dataclass
class PreparationResult:
    final_state: np.ndarray
    records: list[TrajectoryRecord]
    fidelity: float
    measurement_log: list[MeasurementEvent]


def prepare_dicke(
    rho0: np.ndarray,
    target_k: int,
    topology: NetworkTopology,
    rng: np.random.Generator,
    *,
    use_s_measurement: bool = False,
    steps: int = 300,
) -> PreparationResult:
    """Two-stage measurement-and-dissipation preparation of a Dicke state.

    Stage 1 places the state in the target excitation subspace: if
    `use_s_measurement`, measure the global observable first and skip the
    rest when the outcome already matches; otherwise measure every site in
    sigma_z and flip (sigma_x) as many qubits as needed to reach `target_k`
    excitations, choosing the lowest-indexed sites with the appropriate
    outcome.  Stage 2 runs the ssc family cyclically for `steps` steps, which
    drives the subspace to its unique symmetric pure state.

    Returns the final state, the stage-2 trajectory, the final fidelity with
    the target Dicke ket, and the measurement log.
    """
    m = topology.m
    target_k = _as_count(target_k, m)
    if not is_connected(topology):
        raise InputError("preparation requires a connected interaction graph")
    state = _as_state(rho0, m)
    validate_density_matrix(state)
    log: list[MeasurementEvent] = []

    needs_initialization = True
    if use_s_measurement:
        k_meas, state = measure_global_observable(state, m, rng)
        log.append(MeasurementEvent(kind="global", site=None, value=k_meas))
        needs_initialization = k_meas != target_k

    if needs_initialization:
        outcomes = {}
        for site in range(1, m + 1):
            outcome, state = measure_local_z(state, site, m, rng)
            outcomes[site] = outcome
            log.append(MeasurementEvent(kind="site", site=site, value=outcome))
        ones = sum(1 for v in outcomes.values() if v == -1)
        # Too few excitations: flip sites that read +1; too many: sites that read -1.
        flip_from = +1 if ones < target_k else -1
        for site in [s for s in range(1, m + 1) if outcomes[s] == flip_from][: abs(target_k - ones)]:
            state = apply_flip(state, site, m)
            log.append(MeasurementEvent(kind="flip", site=site, value=0))

    result = run(state, topology, ChannelFamily.ssc(), Schedule.cyclic(), steps)
    fidelity = float(dicke_populations(result.final_state, m)[target_k])
    return PreparationResult(
        final_state=result.final_state,
        records=result.records,
        fidelity=fidelity,
        measurement_log=log,
    )


def trajectory_csv_lines(records: list[TrajectoryRecord], m: int) -> list[str]:
    """CSV rows (header first) for a trajectory; 12 significant digits."""
    header = "step,purity,s_expectation,v_total,v_smc,smc_population," + ",".join(
        f"pop_dicke_{k}" for k in range(m + 1)
    )
    lines, row = [header], "%d" + ",%.12g" * (m + 6)  # one format per row; "%.12g" % x == format(x, ".12g")
    for rec in records:
        if len(rec.dicke_populations) != m + 1:
            raise ValueError("record population count does not match m")
        lines.append(row % (rec.step, rec.purity, rec.s_expectation, rec.v_total, rec.v_smc, rec.smc_population, *rec.dicke_populations))
    return lines


def write_trajectory_csv(records: list[TrajectoryRecord], m: int, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(trajectory_csv_lines(records, m)))
        fh.write("\n")
