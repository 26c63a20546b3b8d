"""`run` carries every state as one real matrix X = Re H + Im H and rebuilds rho = (X + X^T)/2 + i (X - X^T)/2.

These tests check the real layout against the complex operator-sum
evolution of `dense_reference`, check that every state a run anchors or
returns is exactly Hermitian, that a start Hermitian only within the
tolerance runs from its Hermitian part, and that the threaded, inline and
unvalidated runs agree bit for bit.
"""

import threading
import weakref
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from dense_reference import dense_channel_apply
from qconsensus import qcore, simulator
from qconsensus.dynamics import ChannelFamily, build_channels
from qconsensus.network import NetworkTopology
from qconsensus.qcore import HERMITICITY_ATOL, bitstring_ket, ket_to_density, load_matrix, purity, save_matrix
from qconsensus.simulator import Schedule, measure_global_observable, random_density, run
from qconsensus.symmetry import dicke_populations, excitation_counts, gossip_fixed_point, v_smc

FAMILIES = {"gossip": ChannelFamily.gossip(0.3), "ssc": ChannelFamily.ssc(), "smc": ChannelFamily.smc()}


def graph(m, name):
    path = tuple((i, i + 1) for i in range(1, m))
    ring = path + (((1, m),) if m > 2 else ())
    edges = {"path": path, "ring": ring, "complete": tuple(combinations(range(1, m + 1), 2))}[name]
    return NetworkTopology(m=m, neighborhoods=edges)


def start_state(kind, m):
    """A Haar-random start, the GHZ state (a fixed point of all three families) or a measured random start (no coherence between excitation sectors)."""
    if kind == "dense":
        return random_density(60 + m, 1 << m)
    if kind == "ghz":
        return ket_to_density(bitstring_ket("0" * m) + bitstring_ket("1" * m)) / 2
    return measure_global_observable(random_density(61 + m, 1 << m), m, np.random.default_rng(m))[1]


def reference_records(rho0, topology, family, picks, early_stop):
    """The complex operator-sum evolution of rho0 on picks: its states after each step and their record fields, stopped as run stops early."""
    m, channels = topology.m, build_channels(family, topology)
    target, s_diag = purity(gossip_fixed_point(rho0, m)), 2.0 * (m - excitation_counts(m))
    states, fields, quiet = [rho0], [], 0
    for idx in picks:
        rho = dense_channel_apply(channels[idx], states[-1])
        pops = dicke_populations(rho, m)
        fields.append([*pops, purity(rho), s_diag @ np.real(np.diag(rho)), v_smc(rho, m), m + 1 - pops.sum()])
        states.append(rho)
        gap = {"ssc": fields[-1][-1] - m, "smc": fields[-1][-2], "gossip": purity(rho) - target}[family.kind]
        quiet = quiet + 1 if gap < simulator.EARLY_STOP_THRESHOLD else 0
        if early_stop and quiet >= 2 * m:
            break
    return states[1:], fields


def record_fields(record):
    return [*record.dicke_populations, record.purity, record.s_expectation, record.v_smc, record.v_total]


@pytest.mark.parametrize("name", ["path", "ring", "complete"])
@pytest.mark.parametrize("kind", sorted(FAMILIES))
@pytest.mark.parametrize("m", range(2, 7))
def test_records_and_final_states_match_the_complex_operator_sum_evolution(monkeypatch, m, kind, name):
    # The measured start takes _Sectors (forced here, however few its
    # steps); the Haar-random and GHZ starts take _Dense.
    monkeypatch.setattr(simulator, "_sectors_pay", lambda *args: True)
    topology, family, steps = graph(m, name), FAMILIES[kind], 30
    picks = simulator._random_picks(topology, m, steps)
    for start in ("dense", "ghz", "measured"):
        rho0 = start_state(start, m)
        for early_stop in (False, True):
            states, fields = reference_records(rho0, topology, family, picks, early_stop)
            for validate in (True, False):
                result = run(rho0, topology, family, Schedule.random(seed=m), steps, validate=validate, early_stop=early_stop)
                assert len(result.records) == len(fields)
                for record, want in zip(result.records, fields):
                    assert np.max(np.abs(np.subtract(record_fields(record), want))) <= 1e-12
                assert result.final_state.dtype == complex
                assert np.max(np.abs(result.final_state - states[-1])) <= 1e-12
        if start == "ghz":
            assert len(states) == 2 * m  # the early stop was reached


@pytest.mark.parametrize("kind", sorted(FAMILIES))
@pytest.mark.parametrize("m", [3, 5, 8])
def test_every_anchored_and_returned_state_is_exactly_hermitian(monkeypatch, m, kind):
    # Every step is anchored; at m = 8 the steps run on a worker thread.
    monkeypatch.setattr(simulator, "PSD_DEBT_BUDGET", 0.0)
    monkeypatch.setattr(simulator, "_spare_core", lambda: True)
    anchored, anchor = [], simulator._Anchor

    def recording_anchor(rho, hermitian=False):
        if hermitian:  # run's own anchors on rebuilt states; the input anchor takes no flag
            anchored.append(rho.copy())
        return anchor(rho, hermitian)

    monkeypatch.setattr(simulator, "_Anchor", recording_anchor)
    topology, steps = graph(m, "ring"), 6
    for pays in (True, False):
        monkeypatch.setattr(simulator, "_sectors_pay", lambda *args: pays)
        for start in ("dense", "measured"):
            anchored.clear()
            result = run(start_state(start, m), topology, FAMILIES[kind], Schedule.random(seed=1), steps)
            assert len(anchored) == steps
            for rho in anchored + [result.final_state]:
                assert np.array_equal(rho, rho.conj().T)
            assert np.array_equal(anchored[-1], result.final_state)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_threaded_inline_and_unvalidated_runs_are_bit_identical_at_m8(monkeypatch, kind):
    monkeypatch.setattr(simulator, "_spare_core", lambda: True)
    threads, step = [], simulator._pair_step
    monkeypatch.setattr(simulator, "_pair_step", lambda *args: threads.append(threading.get_ident()) or step(*args))
    forms, real_form = [], simulator._real_form
    monkeypatch.setattr(simulator, "_real_form", lambda *args: forms.append(threading.get_ident()) or real_form(*args))
    args = (random_density(12, 256), graph(8, "ring"), FAMILIES[kind], Schedule.random(seed=3), 20)
    threaded = run(*args)
    assert threads[0] != threading.get_ident()
    assert forms == threads[:1]  # the worker forms X while the caller factorizes the input
    monkeypatch.setattr(simulator, "OVERLAP_MIN_DIM", 512)
    threads.clear()
    inline = run(*args)
    assert set(threads) == {threading.get_ident()}
    unvalidated = run(*args, validate=False)
    assert threaded.records == inline.records
    assert [replace(r, psd_debt=None) for r in threaded.records] == unvalidated.records
    for result in (inline, unvalidated):
        assert result.final_state.tobytes() == threaded.final_state.tobytes()


@pytest.mark.parametrize("kind", sorted(FAMILIES))
@pytest.mark.parametrize("m", [4, 8])
def test_a_start_hermitian_within_the_tolerance_runs_from_its_hermitian_part(tmp_path, monkeypatch, m, kind):
    # A file start with an anti-Hermitian part of at most 1e-11 an entry: the
    # debt the run starts from holds sqrt(d) ||rho - H||_F, and the run stays
    # within 1e-10 of the complex evolution of the start itself.
    monkeypatch.setattr(simulator, "_spare_core", lambda: True)
    debts, steps_loop = [], simulator._steps
    monkeypatch.setattr(simulator, "_steps", lambda *args: debts.append(args[6]) or steps_loop(*args))
    d = 1 << m
    a = np.random.default_rng(m).standard_normal((d, d)) + 1j * np.random.default_rng(m + 1).standard_normal((d, d))
    skew = (a - a.conj().T) / 2
    path = tmp_path / "start.json"
    save_matrix(path, random_density(5 + m, d) + 1e-11 * skew / np.max(np.abs(skew)))
    rho0 = load_matrix(path)
    gap = np.linalg.norm(rho0 - (rho0 + rho0.conj().T) / 2)
    assert 1e-12 < np.max(np.abs(rho0 - rho0.conj().T)) <= HERMITICITY_ATOL
    topology, family = graph(m, "ring"), FAMILIES[kind]
    picks = simulator._random_picks(topology, 2, 12)
    states, fields = reference_records(rho0, topology, family, picks, False)
    for validate in (True, False):
        result = run(rho0, topology, family, Schedule.random(seed=2), 12, validate=validate)
        start_debt = debts.pop()
        if validate:
            assert start_debt >= np.sqrt(d) * gap
        for record, want in zip(result.records, fields):
            assert np.max(np.abs(np.subtract(record_fields(record), want))) <= 1e-10
        assert np.max(np.abs(result.final_state - states[-1])) <= 1e-10
        assert np.array_equal(result.final_state, result.final_state.conj().T)


@pytest.mark.parametrize("pays", [True, False])
@pytest.mark.parametrize("m", [5, 8])
def test_the_inline_path_keeps_no_array_of_the_input_check(monkeypatch, m, pays):
    # The input check's shifted copy (16 d^2 bytes) is gone before the first
    # step, so it adds nothing to the run's peak memory at later anchors.
    monkeypatch.setattr(simulator, "OVERLAP_MIN_DIM", 1 << 12)
    monkeypatch.setattr(simulator, "_sectors_pay", lambda *args: pays)
    rho0, copies, anchor = start_state("measured", m), [], simulator._Anchor

    class RecordingAnchor(anchor):
        def __init__(self, rho, hermitian=False):
            super().__init__(rho, hermitian)
            if not hermitian:  # the input check; run's own anchors pass hermitian=True
                copies.append(weakref.ref(self.shifted))

    alive = []
    for module in (simulator, qcore):
        monkeypatch.setattr(module, "_Anchor", RecordingAnchor)
    for name in ("_pair_step", "_gather_step"):
        step = getattr(simulator, name)
        monkeypatch.setattr(simulator, name, lambda *args, step=step: alive.append(any(c() is not None for c in copies)) or step(*args))
    run(rho0, graph(m, "ring"), FAMILIES["smc"], Schedule.random(seed=4), 10)
    assert len(copies) == 1
    assert alive == [False] * 10


@pytest.mark.parametrize("kind", sorted(FAMILIES))
@pytest.mark.parametrize("m", [3, 6])
def test_an_unvalidated_run_evolves_the_hermitian_part_of_any_start(monkeypatch, m, kind):
    # A start far from Hermitian, which a validated run rejects, runs
    # unvalidated as its Hermitian part H would: the same records and final
    # state as the complex evolution of H, and an exactly Hermitian result.
    monkeypatch.setattr(simulator, "_sectors_pay", lambda *args: True)
    d = 1 << m
    a = np.random.default_rng(m).standard_normal((d, d)) + 1j * np.random.default_rng(m + 1).standard_normal((d, d))
    hermitian = random_density(m, d)
    topology, family = graph(m, "ring"), FAMILIES[kind]
    picks = simulator._random_picks(topology, 2, 12)
    states, fields = reference_records(hermitian, topology, family, picks, False)
    for skew in ((a - a.conj().T) / 20, np.diag(np.arange(d) * 1e-3j)):
        rho0 = hermitian + skew
        with pytest.raises(ValueError, match="not Hermitian"):
            run(rho0, topology, family, Schedule.random(seed=2), 12)
        result = run(rho0, topology, family, Schedule.random(seed=2), 12, validate=False)
        for record, want in zip(result.records, fields):
            assert np.max(np.abs(np.subtract(record_fields(record), want))) <= 1e-12
        assert np.max(np.abs(result.final_state - states[-1])) <= 1e-12
        assert np.array_equal(result.final_state, result.final_state.conj().T)
