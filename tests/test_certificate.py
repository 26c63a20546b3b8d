"""The certified positivity debt that lets a validated `run` skip per-step factorizations."""

import copy
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconsensus import simulator
from qconsensus.dynamics import (
    ChannelFamily,
    build_channels,
    gossip_channel,
    smc_channel,
    smc_neighborhood_channel,
    ssc_channel,
)
from qconsensus.network import InputError, NetworkTopology
from qconsensus.qcore import (
    PSD_ATOL,
    KrausChannel,
    _Anchor,
    _gamma,
    _pair_step,
    apply_channel,
    apply_error_bound,
    bitstring_ket,
    hermiticity_residual,
    ket,
    ket_to_density,
    purity,
    validate_density_matrix,
)
from qconsensus.simulator import PSD_DEBT_BUDGET, Schedule, random_density, run
from qconsensus.symmetry import _readout

FAMILIES = {"gossip": ChannelFamily.gossip(0.3), "ssc": ChannelFamily.ssc(), "smc": ChannelFamily.smc()}
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
U = 2.0**-53


def ring(m):
    return NetworkTopology(m=m, neighborhoods=tuple((i, i + 1) for i in range(1, m)) + (((1, m),) if m > 2 else ()))


def start_state(kind, m, seed):
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return random_density(seed, 1 << m)
    if kind == "pure":
        return ket_to_density(ket(rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)))
    return ket_to_density(bitstring_ket("".join(rng.choice(["0", "1"], size=m))))


def sector_matrix(v, m):
    """The dense matrix whose zero-coherence entries, in sector order, are v and whose other entries are 0."""
    rho = np.zeros((1 << m, 1 << m), dtype=v.dtype)
    rho.reshape(-1)[_readout(m, 1 << m).sectors] = v
    return rho


def rebuilt(x):
    """The Hermitian rho = (X + X^T)/2 + i (X - X^T)/2 of run's real carried matrix X."""
    return (x + x.T) / 2 + 1j * ((x - x.T) / 2)


def steps_and_records(monkeypatch, *args, **kwargs):
    """run(*args) plus (channel, state after the step, rebuilt from the carried X) for every step it makes, on either state layout."""
    steps = []

    def recording_step(x, layout, channel, superop, *buffers):
        out, out_layout = _pair_step(x, layout, channel, superop, *buffers)
        steps.append((channel, rebuilt(out.transpose(out_layout).reshape(channel.dim, channel.dim))))
        return out, out_layout

    def recording_sector_step(state, channel):
        sector_step(state, channel)
        steps.append((channel, rebuilt(sector_matrix(state.x, channel.m))))

    sector_step = simulator._Sectors.step
    monkeypatch.setattr(simulator, "_pair_step", recording_step)
    monkeypatch.setattr(simulator._Sectors, "step", recording_sector_step)
    result = run(*args, **kwargs)
    return steps, result


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(2, 7),
    kind=st.sampled_from(sorted(FAMILIES)),
    start=st.sampled_from(["dense", "pure", "basis"]),
    seed=st.integers(0, 2**16),
    steps=st.integers(1, 12),
)
def test_debt_bounds_negativity_and_hermiticity_at_every_step(m, kind, start, seed, steps):
    rho0 = start_state(start, m, seed)
    with pytest.MonkeyPatch.context() as mp:
        applied, result = steps_and_records(mp, rho0, ring(m), FAMILIES[kind], Schedule.random(seed=seed), steps)
    assert len(applied) == len(result.records) == steps
    # Forming X from rho0 adds sqrt(d) gamma_3 ||rho0||_F to the input's debt.
    norm_f = np.sqrt(purity(rho0))
    debt = validate_density_matrix(rho0) + np.sqrt(1 << m) * _gamma(3) * norm_f
    for t, ((channel, rho), record) in enumerate(zip(applied, result.records), 1):
        assert 0.0 < record.psd_debt <= PSD_DEBT_BUDGET
        assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0] >= -record.psd_debt
        assert hermiticity_residual(rho) <= record.psd_debt
        if t < steps:  # no anchor before the last step: the debt grows by the step's bound
            assert record.psd_debt == pytest.approx(debt + apply_error_bound(channel) * norm_f, rel=1e-12, abs=0)
        debt, norm_f = record.psd_debt, np.sqrt(record.purity)


def test_unvalidated_run_records_no_debt():
    result = run(random_density(3, 8), ring(3), ChannelFamily.ssc(), Schedule.cyclic(), 4, validate=False)
    assert all(r.psd_debt is None for r in result.records)


def exact_superop(channel, alpha=None):
    """The exactly CPTP superoperator that a stored one approximates, as Fractions."""
    if alpha is None:  # ssc and smc entries are multiples of 1/4
        return [[Fraction(round(4 * x), 4) for x in row] for row in channel.superop]
    a = Fraction(alpha)
    swap2 = np.kron(SWAP, SWAP)
    return [[(1 - a) * (i == j) + a * int(swap2[i, j]) for j in range(16)] for i in range(16)]


@pytest.mark.parametrize("alpha", [0.5, 0.3, 0.1, 0.999, 1e-6, 0.7123456789])
def test_stored_superoperators_are_within_five_units_of_exact_maps(alpha):
    cases = [(gossip_channel((1, 2), 2, alpha), alpha), (ssc_channel((1, 2), 2), None), (smc_channel((1, 2), 2), None)]
    for channel, a in cases:
        exact = exact_superop(channel, a)
        for i in range(16):
            for j in range(16):
                stored, want = Fraction(float(channel.superop[i, j])), exact[i][j]
                assert abs(stored - want) <= 5 * U * abs(want)


@pytest.mark.parametrize("kind", [*sorted(FAMILIES), "smc3"])
@pytest.mark.parametrize("m", [3, 6])
def test_apply_error_bound_covers_the_rounding_of_one_step(kind, m):
    # Reference: the exact map evaluated in extended precision on the same input.
    # smc3 is the 3-site smc map (64-term products); its entries are multiples of 1/3.
    alpha = FAMILIES[kind].alpha if kind in FAMILIES else None
    for seed in range(4):
        rho = random_density(seed, 1 << m)
        if kind == "smc3":
            sites = tuple(1 + (seed + i) % m for i in range(3))
            channel = KrausChannel(smc_neighborhood_channel(3).kraus_ops, sites=sites, m=m)
        else:
            channel = build_channels(FAMILIES[kind], ring(m))[seed % m]
        if alpha is None:
            exact = np.round(12 * channel.superop).astype(np.longdouble) / 12
        else:
            a = np.longdouble(alpha)
            exact = (1 - a) * np.eye(16, dtype=np.longdouble) + a * np.kron(SWAP, SWAP).astype(np.longdouble)
        view = rho.astype(np.clongdouble).reshape((2,) * (2 * m)).transpose(channel.perm).reshape(len(exact), -1)
        reference = (exact @ view).reshape((2,) * (2 * m)).transpose(channel.inverse_perm).reshape(rho.shape)
        error = (apply_channel(channel, rho, validate=False) - reference).astype(complex)
        assert np.linalg.norm(error, "nuc") <= apply_error_bound(channel) * np.sqrt(purity(rho))


def test_apply_error_bound_rejects_a_complex_superoperator():
    phase = KrausChannel((np.diag([1, 1j]),), label="phase")
    with pytest.raises(InputError, match="complex"):
        apply_error_bound(phase)


def partially_transposed(channel):
    """The channel with the row and column axes of its first site swapped on output."""
    broken = copy.copy(channel)
    inverse = list(channel.inverse_perm)
    site = channel.sites[0] - 1
    inverse[site], inverse[channel.m + site] = inverse[channel.m + site], inverse[site]
    object.__setattr__(broken, "inverse_perm", tuple(inverse))
    return broken


@pytest.mark.parametrize("kind", sorted(FAMILIES))
@pytest.mark.parametrize(
    "order, edge", [((2, 0, 1), "(1, 2)"), ((0, 2, 1), "(3, 4)")], ids=["fault-at-last-step", "fault-at-first-step"]
)
def test_kernel_fault_fails_within_the_same_run(monkeypatch, kind, order, edge):
    # A partial transpose is trace preserving and keeps Hermiticity, but maps
    # the Bell pair on edge (1, 2) to an operator with eigenvalue -1/2; the
    # other step acts on sites 3 and 4, which every family leaves in |00>.
    topology = NetworkTopology(m=4, neighborhoods=((1, 2), (2, 3), (3, 4)))
    schedule = Schedule.cyclic(order)
    bell = ket_to_density(np.kron(ket([1, 0, 0, 1]), [1, 0, 0, 0]))
    run(bell, topology, FAMILIES[kind], schedule, 2)
    channels = build_channels(FAMILIES[kind], topology)
    monkeypatch.setattr(simulator, "build_channels", lambda family, top: (partially_transposed(channels[0]),) + channels[1:])
    with pytest.raises(ValueError) as err:
        run(bell, topology, FAMILIES[kind], schedule, 2)
    assert str(err.value) == (
        f"{kind} run, step 2 on edge {edge}: not positive semidefinite: min eigenvalue -5.000e-01 "
        "(last passing anchor at step 0; the fault lies in steps 1..2)"
    )


def test_trace_fault_is_caught_at_its_step_with_context(monkeypatch):
    def leaky_step(x, layout, channel, superop, *buffers):
        out, out_layout = _pair_step(x, layout, channel, superop, *buffers)
        return (out * (1 + 2e-9) if channel.sites == (2, 3) else out), out_layout

    monkeypatch.setattr(simulator, "_pair_step", leaky_step)
    with pytest.raises(ValueError, match=r"^smc run, step 2 on edge \(2, 3\): trace 1.000000002\+0j deviates"):
        run(random_density(6, 8), ring(3), ChannelFamily.smc(), Schedule.cyclic(), 3)


def spectrum_state(min_eig):
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    spectrum = np.full(8, (1.0 - min_eig) / 7)
    spectrum[0] = min_eig
    rho = (q * spectrum) @ q.conj().T
    return 0.5 * (rho + rho.conj().T)


def off_hermitian():
    rho = random_density(5, 8)
    rho[0, 1] += 2e-9
    return rho


@pytest.mark.parametrize(
    "rho, message",
    [
        (spectrum_state(-2 * PSD_ATOL), "not positive semidefinite: min eigenvalue -2.000e-09"),
        (off_hermitian(), "not Hermitian: residual 2.000e-09 > 1.0e-09"),
        (random_density(5, 8) * (1 + 2e-9), "trace 1.000000002+0j deviates from 1 by more than 1.0e-09"),
    ],
    ids=["negative", "non-hermitian", "trace"],
)
def test_rejected_states_keep_their_messages(rho, message):
    for check in (validate_density_matrix, lambda r: run(r, ring(3), ChannelFamily.ssc(), Schedule.cyclic(), 3)):
        with pytest.raises(ValueError) as err:
            check(rho)
        assert str(err.value) == message


def test_state_inside_the_floor_is_accepted_and_its_debt_covers_it():
    rho = spectrum_state(-0.5 * PSD_ATOL)
    validate_density_matrix(rho)
    assert validate_density_matrix(rho) >= 0.5 * PSD_ATOL
    result = run(rho, ring(3), ChannelFamily.ssc(), Schedule.cyclic(), 3)
    assert len(result.records) == 3


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_forced_anchors_leave_the_trajectory_bit_identical(monkeypatch, kind):
    calls, cholesky = [], _Anchor.cholesky
    args = (random_density(9, 32), ring(5), FAMILIES[kind], Schedule.random(seed=2), 12)

    def counting_cholesky(anchor):
        calls.append(anchor)
        return cholesky(anchor)

    monkeypatch.setattr(_Anchor, "cholesky", counting_cholesky)
    plain = run(*args)
    assert len(calls) == 2  # the input and the last step
    monkeypatch.setattr(simulator, "PSD_DEBT_BUDGET", 0.0)
    forced = run(*args)
    assert len(calls) == 2 + 13
    unvalidated = run(*args, validate=False)
    for result in (forced, unvalidated):
        assert [replace(r, psd_debt=None) for r in result.records] == [replace(r, psd_debt=None) for r in plain.records]
        assert result.final_state.tobytes() == plain.final_state.tobytes()
    assert forced.records[-1].psd_debt == plain.records[-1].psd_debt


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 32), seed=st.integers(0, 2**16))
def test_purity_equals_trace_of_the_square_on_hermitian_matrices(dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = x + x.conj().T
    h /= np.linalg.norm(h)
    assert abs(purity(h) - np.einsum("ij,ji->", h, h).real) <= 1e-15
