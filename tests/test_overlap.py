"""A validated `run` on a large state steps on a worker thread while the caller factorizes the input.

Every test here runs at m = 8 (d = 256, the smallest size on the threaded
path) and compares against the same run on the inline path, selected by
raising `simulator.OVERLAP_MIN_DIM` past d.  The threaded path also needs a
spare core (one BLAS thread per call, two usable cores); the tests assume one
unless they check that rule.
"""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from qconsensus import qcore, simulator
from qconsensus.dynamics import ChannelFamily
from qconsensus.network import NetworkTopology
from qconsensus.qcore import PSD_ATOL, _Anchor, _pair_step, validate_density_matrix
from qconsensus.simulator import Schedule, random_density, run

M = 8
FAMILIES = {"gossip": ChannelFamily.gossip(0.3), "ssc": ChannelFamily.ssc(), "smc": ChannelFamily.smc()}
RING = NetworkTopology(m=M, neighborhoods=tuple((i, i + 1) for i in range(1, M)) + ((1, M),))
SPARE_CORE = simulator._spare_core


@pytest.fixture(autouse=True)
def spare_core(monkeypatch):
    monkeypatch.setattr(simulator, "_spare_core", lambda: True)


def inline(monkeypatch):
    monkeypatch.setattr(simulator, "OVERLAP_MIN_DIM", 2 * (1 << M))


def step_threads(monkeypatch, on_step=None, step=_pair_step):
    """Record the thread of every pair step `run` makes, through `step`; on_step(n) runs before step n (1-based)."""
    threads = []

    def spying_step(*args):
        if on_step is not None:
            on_step(len(threads) + 1)
        threads.append(threading.get_ident())
        return step(*args)

    monkeypatch.setattr(simulator, "_pair_step", spying_step)
    return threads


def spectrum_state(min_eig, seed=4):
    """A d = 256 density matrix with one eigenvalue min_eig and the rest equal."""
    d = 1 << M
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    spectrum = np.full(d, (1.0 - min_eig) / (d - 1))
    spectrum[0] = min_eig
    rho = (q * spectrum) @ q.conj().T
    return 0.5 * (rho + rho.conj().T)


def basis_zero():
    rho = np.zeros((1 << M, 1 << M), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def leaky(scale, sites=(2, 3)):
    """A pair step that scales its output (a trace fault) on one edge."""

    def leaky_step(x, layout, channel, superop, *buffers):
        out, out_layout = _pair_step(x, layout, channel, superop, *buffers)
        return (out * scale if channel.sites == sites else out), out_layout

    return leaky_step


@pytest.mark.parametrize("early_stop", [False, True], ids=["full", "early-stop"])
@pytest.mark.parametrize("start", ["dense", "basis"])
@pytest.mark.parametrize("mode", ["cyclic", "random"])
@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_threaded_run_matches_the_inline_run_bit_for_bit(monkeypatch, kind, mode, start, early_stop):
    rho = random_density(11, 1 << M) if start == "dense" else basis_zero()
    schedule = Schedule.cyclic() if mode == "cyclic" else Schedule.random(seed=5)
    args = (rho, RING, FAMILIES[kind], schedule, 2 * M + 6)
    before = threading.active_count()
    threads = step_threads(monkeypatch)
    threaded = run(*args, early_stop=early_stop)
    assert threading.active_count() == before
    assert threads[0] != threading.get_ident()  # the first step ran on the worker
    inline(monkeypatch)
    threads.clear()
    plain = run(*args, early_stop=early_stop)
    assert set(threads) == {threading.get_ident()}
    assert threaded.records == plain.records
    assert threaded.final_state.tobytes() == plain.final_state.tobytes()
    assert len(plain.records) == (2 * M if early_stop and start == "basis" else 2 * M + 6)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_forced_anchors_on_the_threaded_path_leave_the_trajectory_bit_identical(monkeypatch, kind):
    factorizations = []
    cholesky = _Anchor.cholesky

    def counting_cholesky(self):
        factorizations.append(threading.get_ident())
        return cholesky(self)

    steps = 10
    args = (random_density(9, 1 << M), RING, FAMILIES[kind], Schedule.random(seed=2), steps)
    monkeypatch.setattr(qcore._Anchor, "cholesky", counting_cholesky)
    plain = run(*args)
    assert len(factorizations) == 2  # the input and the last step
    monkeypatch.setattr(simulator, "PSD_DEBT_BUDGET", 0.0)
    forced = run(*args)
    assert len(factorizations) == 2 + 1 + steps  # this run: the input and every step
    assert set(factorizations) == {threading.get_ident()}  # every factorization on the caller's thread
    assert [replace(r, psd_debt=None) for r in forced.records] == [replace(r, psd_debt=None) for r in plain.records]
    assert forced.final_state.tobytes() == plain.final_state.tobytes()
    assert forced.records[-1].psd_debt == plain.records[-1].psd_debt


def off_hermitian():
    rho = random_density(5, 1 << M)
    rho[0, 1] += 2e-9
    return rho


@pytest.mark.parametrize(
    "rho, message",
    [
        (spectrum_state(-2 * PSD_ATOL), "not positive semidefinite: min eigenvalue -2.000e-09"),
        (off_hermitian(), "not Hermitian: residual 2.000e-09 > 1.0e-09"),
        (random_density(5, 1 << M) * (1 + 2e-9), "trace 1.000000002+0j deviates from 1 by more than 1.0e-09"),
    ],
    ids=["negative", "non-hermitian", "trace"],
)
def test_rejected_states_keep_their_messages_on_the_threaded_path(rho, message):
    before = threading.active_count()
    for check in (validate_density_matrix, lambda r: run(r, RING, ChannelFamily.ssc(), Schedule.cyclic(), 3)):
        with pytest.raises(ValueError) as err:
            check(rho)
        assert str(err.value) == message
    assert threading.active_count() == before


def test_input_inside_the_floor_reruns_inline_with_the_eigvalsh_debt(monkeypatch):
    rho = spectrum_state(-0.4 * PSD_ATOL)
    assert not _Anchor(rho).cholesky()  # the rerun path: the Cholesky fails, and eigvalsh accepts
    args = (rho, RING, ChannelFamily.ssc(), Schedule.cyclic(), 12)
    threads = step_threads(monkeypatch)
    rerun = run(*args)
    assert threads[-12:] == [threading.get_ident()] * 12  # the rerun made every step on the caller's thread
    inline(monkeypatch)
    plain = run(*args)
    assert rerun.records == plain.records
    assert rerun.final_state.tobytes() == plain.final_state.tobytes()
    # The first step carries the eigvalsh debt, not the closed form a Cholesky would have given.
    bound = plain.records[0].psd_debt - validate_density_matrix(rho)
    assert 0 < bound < 1e-12 and validate_density_matrix(rho) > _Anchor(rho).debt


def test_trace_fault_on_the_worker_keeps_its_step_edge_and_anchor_context(monkeypatch):
    expected = (
        r"^smc run, step 2 on edge \(2, 3\): trace 1.000000002\+0j deviates from 1 by more than 1.0e-09 "
        r"\(last passing anchor at step 0; the fault lies in steps 1..2\)$"
    )
    messages = []
    for path in ("threaded", "inline"):
        if path == "inline":
            inline(monkeypatch)
        threads = step_threads(monkeypatch, step=leaky(1 + 2e-9))
        before = threading.active_count()
        with pytest.raises(ValueError, match=expected) as err:
            run(random_density(6, 1 << M), RING, ChannelFamily.smc(), Schedule.cyclic(), 5)
        assert threading.active_count() == before
        assert len(threads) == 2 and (threads[1] != threading.get_ident()) == (path == "threaded")
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_an_invalid_input_outranks_a_fault_on_the_worker(monkeypatch):
    faulted, check_trace, cholesky = threading.Event(), simulator.check_trace, _Anchor.cholesky

    def recording_check_trace(diag):
        try:
            check_trace(diag)
        except ValueError:
            faulted.set()
            raise

    def late_cholesky(self):  # returns only after the worker's fault
        assert faulted.wait(10.0)
        return cholesky(self)

    rho = spectrum_state(-2 * PSD_ATOL)
    monkeypatch.setattr(simulator, "check_trace", recording_check_trace)
    monkeypatch.setattr(qcore._Anchor, "cholesky", late_cholesky)
    threads = step_threads(monkeypatch, step=leaky(1 + 2e-9, sites=(1, 2)))
    before = threading.active_count()
    with pytest.raises(ValueError) as err:
        run(rho, RING, ChannelFamily.ssc(), Schedule.cyclic(), 5)
    assert str(err.value) == "not positive semidefinite: min eigenvalue -2.000e-09"
    assert len(threads) == 1 and threads[0] != threading.get_ident()  # the worker faulted at step 1
    assert threading.active_count() == before


def test_a_failing_factorization_stops_the_worker_within_one_step(monkeypatch):
    halts, two_done = [], threading.Event()
    steps_loop = simulator._steps

    def spying_steps(*args):
        halts.append(args[-1])  # the halt event the caller sets
        return steps_loop(*args)

    def on_step(n):
        if n == 3:
            two_done.set()
            assert halts[0].wait(10.0)  # step 3 starts only once the caller has stopped the worker

    def failing_cholesky(self):
        assert two_done.wait(10.0)
        raise RuntimeError("factorization failed")

    rho = random_density(3, 1 << M)
    monkeypatch.setattr(simulator, "_steps", spying_steps)
    monkeypatch.setattr(qcore._Anchor, "cholesky", failing_cholesky)
    threads = step_threads(monkeypatch, on_step)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="factorization failed"):
        run(rho, RING, ChannelFamily.gossip(0.5), Schedule.cyclic(), 200)
    assert threading.active_count() == before
    assert len(threads) == 3  # the step under way when the worker was stopped, and no further one


def test_concurrent_threaded_runs_match_their_inline_runs():
    # More callers than cores, each starting a worker per run, with frequent
    # thread switches: no run may see another's buffers or halt event.
    cases = [(random_density(20 + i, 1 << M), FAMILIES[kind]) for i, kind in enumerate(sorted(FAMILIES) * 2)]
    results, errors = {}, []

    def caller(i):
        try:
            rho, family = cases[i]
            results[i] = run(rho, RING, family, Schedule.random(seed=i), 12)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller, args=(i,)) for i in range(len(cases))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in callers)
    with pytest.MonkeyPatch.context() as mp:
        inline(mp)
        for i, (rho, family) in enumerate(cases):
            plain = run(rho, RING, family, Schedule.random(seed=i), 12)
            assert results[i].records == plain.records
            assert results[i].final_state.tobytes() == plain.final_state.tobytes()


@pytest.mark.parametrize(
    "environ, cpus, threads",
    [
        ({}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 1),
        ({"OMP_NUM_THREADS": "1"}, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 8, 2),
        ({"OPENBLAS_NUM_THREADS": "4"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "x"}, 1, 1),
    ],
)
def test_blas_threads_follow_openblas_environment_rule(environ, cpus, threads):
    assert simulator._blas_threads(environ, cpus) == threads


@pytest.mark.parametrize("blas_threads, cpus, threaded", [(1, {0, 1}, True), (2, {0, 1}, False), (1, {0}, False)])
def test_the_threaded_path_needs_one_blas_thread_and_two_usable_cores(monkeypatch, blas_threads, cpus, threaded):
    monkeypatch.setattr(simulator, "_spare_core", SPARE_CORE)
    monkeypatch.setattr(simulator, "_BLAS_THREADS", blas_threads)
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: cpus, raising=False)
    threads = step_threads(monkeypatch)
    run(random_density(8, 1 << M), RING, ChannelFamily.ssc(), Schedule.cyclic(), 4)
    assert (threads[0] != threading.get_ident()) == threaded


def test_an_interrupt_while_joining_the_worker_stops_it(monkeypatch):
    # The input's Cholesky succeeds; the interrupt arrives in the join that
    # waits for the worker's first anchor request, which would be its last step.
    join, calls, running = threading.Thread.join, [], threading.Event()

    def interrupted_join(self, timeout=None):
        calls.append(self.name)
        if len(calls) == 1:
            assert running.wait(10.0)
            raise KeyboardInterrupt
        return join(self, timeout)

    monkeypatch.setattr(simulator, "PSD_DEBT_BUDGET", float("inf"))
    monkeypatch.setattr(threading.Thread, "join", interrupted_join)
    threads = step_threads(monkeypatch, on_step=lambda n: n == 3 and running.set())
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        run(random_density(3, 1 << M), RING, ChannelFamily.gossip(0.5), Schedule.cyclic(), 100_000)
    assert calls == ["qconsensus-run-steps"] * 2  # the interrupted join, then the one after the halt
    assert threading.active_count() == before
    assert len(threads) < 100_000
