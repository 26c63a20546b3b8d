import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconsensus.dynamics import (
    ChannelFamily,
    build_channels,
    gossip_channel,
    neighborhood_channel,
    smc_channel,
    smc_neighborhood_channel,
    ssc_channel,
    ssc_feedback_decomposition,
    ssc_pair_channel,
)
from qconsensus.network import NetworkTopology
from qconsensus.qcore import (
    KrausChannel,
    apply_channel,
    bitstring_ket,
    check_cptp,
    completeness_residual,
    dual_apply,
    ket_to_density,
    purity,
)
from qconsensus.simulator import Schedule, random_density, run
from qconsensus.symmetry import dicke_ket, global_observable, v_smc, v_total

from dense_reference import embed_neighborhood

R2 = 1.0 / np.sqrt(2.0)


def test_channel_family_validation():
    with pytest.raises(ValueError):
        ChannelFamily("teleport")
    with pytest.raises(ValueError):
        ChannelFamily.gossip(0.0)
    with pytest.raises(ValueError):
        ChannelFamily.gossip(1.0)
    with pytest.raises(ValueError):
        ChannelFamily("ssc", alpha=0.5)
    assert ChannelFamily("gossip").alpha == 0.5


@pytest.mark.parametrize("alpha", ["0.3", True, 0.3 + 0j], ids=["str", "bool", "complex"])
def test_gossip_rejects_a_weight_that_is_not_a_real_number(alpha):
    with pytest.raises(ValueError, match="not a real number"):
        ChannelFamily.gossip(alpha)
    with pytest.raises(ValueError, match="not a real number"):
        gossip_channel((1, 2), 2, alpha)
    assert ChannelFamily.gossip(np.float64(0.3)).alpha == 0.3


@pytest.mark.parametrize(
    "make",
    [lambda pair: gossip_channel(pair, 3, 0.5), lambda pair: ssc_channel(pair, 3), lambda pair: smc_channel(pair, 3)],
    ids=["gossip", "ssc", "smc"],
)
@pytest.mark.parametrize("pair", [(1.5, 2), ("1", 2), (True, 2)], ids=["float", "str", "bool"])
def test_pair_channels_reject_sites_they_would_have_to_coerce(make, pair):
    with pytest.raises(ValueError, match="not an integer"):
        make(pair)
    assert make((np.int64(2), np.int32(1))).sites == (1, 2)


def test_gossip_alpha_half_reaches_pair_average_in_one_step():
    ch = gossip_channel((1, 2), 2, 0.5)
    out = apply_channel(ch, ket_to_density(bitstring_ket("01")))
    expected = 0.5 * ket_to_density(bitstring_ket("01")) + 0.5 * ket_to_density(bitstring_ket("10"))
    assert np.max(np.abs(out - expected)) < 1e-12


def test_gossip_fixes_permutation_invariant_states():
    mix = sum(ket_to_density(dicke_ket(3, k)) for k in range(4)) / 4
    for alpha in (0.2, 0.5, 0.9):
        for pair in ((1, 2), (2, 3), (1, 3)):
            out = apply_channel(gossip_channel(pair, 3, alpha), mix)
            assert np.max(np.abs(out - mix)) < 1e-12


def test_gossip_is_unital_mixture_of_unitaries():
    report = check_cptp(gossip_channel((1, 3), 3, 0.4))
    assert report.completeness_residual <= 1e-12
    assert report.is_unital


def test_gossip_rejects_bad_alpha():
    with pytest.raises(ValueError):
        gossip_channel((1, 2), 2, 1.5)


def test_ssc_pair_maps_01_to_symmetric_state_in_one_step():
    ch = ssc_pair_channel()
    out = apply_channel(ch, ket_to_density(bitstring_ket("01")))
    target = ket_to_density(dicke_ket(2, 1))
    assert np.max(np.abs(out - target)) <= 1e-12


def test_ssc_pair_fixes_ground_state():
    ch = ssc_pair_channel()
    rho = ket_to_density(bitstring_ket("00"))
    assert np.max(np.abs(apply_channel(ch, rho) - rho)) < 1e-15


def test_ssc_pair_transports_antisymmetric_state():
    ch = ssc_pair_channel()
    anti = np.array([0.0, R2, -R2, 0.0], dtype=complex)
    out = apply_channel(ch, ket_to_density(anti))
    assert np.max(np.abs(out - ket_to_density(dicke_ket(2, 1)))) < 1e-12


def test_ssc_pair_structure():
    ch = ssc_pair_channel()
    assert len(ch.kraus_ops) == 2
    m1, m2 = ch.kraus_ops
    # Second operator is the orthogonal projector onto span{|00>, sym, |11>}.
    assert np.max(np.abs(m2 @ m2 - m2)) < 1e-12
    assert np.max(np.abs(m2 - m2.conj().T)) < 1e-12
    assert abs(np.trace(m2).real - 3.0) < 1e-12
    # First operator annihilates that span and maps antisym to sym.
    anti = np.array([0.0, R2, -R2, 0.0], dtype=complex)
    assert np.max(np.abs(m1 @ dicke_ket(2, 1))) < 1e-12
    assert np.max(np.abs(m1 @ anti - dicke_ket(2, 1))) < 1e-12


@pytest.mark.parametrize("m, pair", [(3, (1, 2)), (3, (1, 3)), (4, (2, 4))])
def test_ssc_channel_leaves_global_observable_invariant(m, pair):
    ch = ssc_channel(pair, m)
    s = global_observable(m)
    assert np.max(np.abs(dual_apply(ch, s) - s)) < 1e-10


@pytest.mark.parametrize("m", [3, 4])
def test_ssc_channel_fixes_dicke_states(m):
    pairs = [(i, i + 1) for i in range(1, m)]
    for k in range(m + 1):
        rho = ket_to_density(dicke_ket(m, k))
        for pair in pairs:
            out = apply_channel(ssc_channel(pair, m), rho)
            assert np.max(np.abs(out - rho)) <= 1e-12, (m, k, pair)


def test_ssc_channel_spreads_population_within_subspace():
    ch = ssc_channel((1, 2), 3)
    out = apply_channel(ch, ket_to_density(bitstring_ket("010")))
    probe = np.kron(dicke_ket(2, 1), bitstring_ket("0"))
    assert np.real(probe.conj() @ out @ probe) > 0.4


def test_ssc_channel_has_two_kraus_ops():
    assert len(ssc_channel((1, 2), 3).kraus_ops) == 2


def test_feedback_decomposition_reconstructs_first_kraus_operator():
    fd = ssc_feedback_decomposition()
    m1, m2 = ssc_pair_channel().kraus_ops
    eye = np.eye(4)
    assert np.max(np.abs(fd.projector_1 + fd.projector_2 - eye)) < 1e-12
    for p in (fd.projector_1, fd.projector_2):
        assert np.max(np.abs(p @ p - p)) < 1e-10
        assert np.max(np.abs(p - p.conj().T)) < 1e-10
    assert np.max(np.abs(fd.projector_1 @ fd.projector_2)) < 1e-12
    u = fd.correction_unitary
    assert np.max(np.abs(u @ u.conj().T - eye)) < 1e-10
    assert np.max(np.abs(u @ fd.projector_1 - m1)) <= 1e-12
    assert np.max(np.abs(fd.projector_2 - m2)) <= 1e-12
    # Outcome-1 projector is rank one on the antisymmetric direction.
    anti = np.array([0.0, R2, -R2, 0.0], dtype=complex)
    assert abs(np.trace(fd.projector_1).real - 1.0) < 1e-12
    assert np.max(np.abs(fd.projector_1 @ anti - anti)) < 1e-12


def test_ssc_pair_map_is_exactly_trace_preserving():
    # Operators with 1/sqrt2 entries leave a completeness residual of ~4e-16,
    # and the trace error then grows by ~2e-16 per step, always the same way.
    assert completeness_residual(ssc_pair_channel()) == 0.0
    fd = ssc_feedback_decomposition()
    assert np.array_equal(fd.correction_unitary, np.diag([1.0, 1.0, -1.0, 1.0]))
    assert np.array_equal(fd.correction_unitary @ fd.projector_1, ssc_pair_channel().kraus_ops[0])
    ring = NetworkTopology(m=4, neighborhoods=((1, 2), (2, 3), (3, 4), (1, 4)))
    result = run(random_density(31, 16), ring, ChannelFamily.ssc(), Schedule.random(seed=8), 10_000, validate=False)
    assert abs(np.trace(result.final_state) - 1.0) <= 1e-14


def test_smc_neighborhood_two_qubits_balanced_weights():
    ch = smc_neighborhood_channel(2)
    out = apply_channel(ch, ket_to_density(bitstring_ket("01")))
    expected = 0.5 * ket_to_density(bitstring_ket("00")) + 0.5 * ket_to_density(bitstring_ket("11"))
    assert np.max(np.abs(out - expected)) < 1e-12


def test_smc_neighborhood_preserves_internal_coherence():
    ch = smc_neighborhood_channel(2)
    plus = (bitstring_ket("00") + bitstring_ket("11")) / np.sqrt(2)
    rho = ket_to_density(plus)
    assert np.max(np.abs(apply_channel(ch, rho) - rho)) < 1e-15


def test_smc_neighborhood_conserves_observable_expectation():
    # Tr(S2 |01><01|) = 2 and the output 1/2 |00> + 1/2 |11| gives
    # 1/2 * 4 + 1/2 * 0 = 2.
    ch = smc_neighborhood_channel(2)
    s2 = global_observable(2)
    rho = ket_to_density(bitstring_ket("01"))
    out = apply_channel(ch, rho)
    assert abs(np.trace(s2 @ out) - np.trace(s2 @ rho)) < 1e-12
    assert abs(np.real(np.trace(s2 @ rho)) - 2.0) < 1e-12


def test_smc_neighborhood_three_qubit_weights():
    # |001> has two zero bits out of three: weights 2/3 on |000>, 1/3 on |111>.
    ch = smc_neighborhood_channel(3)
    out = apply_channel(ch, ket_to_density(bitstring_ket("001")))
    expected = (2 / 3) * ket_to_density(bitstring_ket("000")) + (1 / 3) * ket_to_density(
        bitstring_ket("111")
    )
    assert np.max(np.abs(out - expected)) < 1e-12


def test_smc_neighborhood_rejects_single_site():
    with pytest.raises(ValueError):
        smc_neighborhood_channel(1)


def test_smc_unitary_choice_does_not_affect_channel():
    # Each transposition enters only as U P_k, so replacing it by the
    # rank-one transfer |target><k| leaves the channel unchanged.
    n = 3
    dim = 1 << n
    ch = smc_neighborhood_channel(n)
    alt_ops = [np.zeros((dim, dim), dtype=complex)]
    alt_ops[0][0, 0] = 1.0
    alt_ops[0][dim - 1, dim - 1] = 1.0
    for k in range(1, dim - 1):
        p0 = (n - bin(k).count("1")) / n
        for weight, target in ((p0, 0), (1 - p0, dim - 1)):
            op = np.zeros((dim, dim), dtype=complex)
            op[target, k] = np.sqrt(weight)
            alt_ops.append(op)
    super_ch = sum(np.kron(a, a.conj()) for a in ch.kraus_ops)
    super_alt = sum(np.kron(a, a.conj()) for a in alt_ops)
    assert np.max(np.abs(super_ch - super_alt)) < 1e-12


@pytest.mark.parametrize("pair", [(1, 2), (2, 3), (1, 3)])
def test_smc_channel_fixes_consensus_span(pair):
    rho = 0.5 * ket_to_density(bitstring_ket("000")) + 0.5 * ket_to_density(bitstring_ket("111"))
    out = apply_channel(smc_channel(pair, 3), rho)
    assert np.max(np.abs(out - rho)) <= 1e-12


def test_smc_channel_dual_leaves_global_observable_invariant():
    for m, pair in [(3, (1, 2)), (4, (1, 4))]:
        ch = smc_channel(pair, m)
        s = global_observable(m)
        assert np.max(np.abs(dual_apply(ch, s) - s)) < 1e-10


def test_smc_channel_completeness():
    report = check_cptp(smc_channel((1, 2), 2))
    assert report.completeness_residual <= 1e-12


@pytest.mark.parametrize("m", [2, 3, 4])
def test_all_families_cptp_on_complete_graph(m):
    from itertools import combinations

    for pair in combinations(range(1, m + 1), 2):
        for family in (ChannelFamily.gossip(0.5), ChannelFamily.ssc(), ChannelFamily.smc()):
            ch = neighborhood_channel(family, pair, m)
            assert check_cptp(ch).completeness_residual <= 1e-10, (family.kind, pair)


def test_per_step_conservation_and_monotonicity():
    m = 3
    s = global_observable(m)
    pairs = [(1, 2), (2, 3)]
    for seed in range(10):
        rho = random_density(seed + 300, 1 << m)
        for pair in pairs:
            out = apply_channel(ssc_channel(pair, m), rho)
            assert abs(np.trace(s @ out) - np.trace(s @ rho)) < 1e-10
            assert v_total(out, m) <= v_total(rho, m) + 1e-12

            out = apply_channel(smc_channel(pair, m), rho)
            assert abs(np.trace(s @ out) - np.trace(s @ rho)) < 1e-10
            assert v_smc(out, m) <= v_smc(rho, m) + 1e-12

            out = apply_channel(gossip_channel(pair, m, 0.5), rho)
            assert purity(out) <= purity(rho) + 1e-12
            for k in range(m + 1):
                d = dicke_ket(m, k)
                before = np.real(d.conj() @ rho @ d)
                after = np.real(d.conj() @ out @ d)
                assert abs(after - before) < 1e-10


def test_build_channels_matches_topology_order():
    top = NetworkTopology(m=3, neighborhoods=((1, 2), (2, 3)))
    channels = build_channels(ChannelFamily.ssc(), top)
    assert len(channels) == 2
    assert channels[0].label == "ssc(1,2)"
    assert channels[1].label == "ssc(2,3)"


# ---------------------------------------------------------------------------
# Dense superoperator oracle for m = 2.  The matrices below are written out
# by hand; the comparison path is apply_channel acting on matrix units, so
# the two routes share no code.
# ---------------------------------------------------------------------------

_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)

_M1_HAND = 0.5 * np.array(
    [[0, 0, 0, 0], [0, 1, -1, 0], [0, 1, -1, 0], [0, 0, 0, 0]], dtype=complex
)
_M2_HAND = np.array(
    [[1, 0, 0, 0], [0, 0.5, 0.5, 0], [0, 0.5, 0.5, 0], [0, 0, 0, 1]], dtype=complex
)

_P_SYM_HAND = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)


def _smc_hand_ops():
    ops = [_P_SYM_HAND]
    for k in (1, 2):
        for target in (0, 3):
            op = np.zeros((4, 4), dtype=complex)
            op[target, k] = np.sqrt(0.5)
            ops.append(op)
    return ops


def _superoperator(ops):
    # Row-major vec convention: vec(A rho A^dag) = (A (x) conj(A)) vec(rho).
    return sum(np.kron(a, a.conj()) for a in ops)


@pytest.mark.parametrize(
    "channel, oracle",
    [
        (
            gossip_channel((1, 2), 2, 0.3),
            0.7 * np.eye(16, dtype=complex) + 0.3 * np.kron(_SWAP, _SWAP.conj()),
        ),
        (ssc_pair_channel(), _superoperator([_M1_HAND, _M2_HAND])),
        (smc_neighborhood_channel(2), _superoperator(_smc_hand_ops())),
    ],
    ids=["gossip", "ssc", "smc"],
)
def test_channel_matches_hand_derived_superoperator(channel, oracle):
    for i in range(4):
        for j in range(4):
            unit = np.zeros((4, 4), dtype=complex)
            unit[i, j] = 1.0
            via_channel = apply_channel(channel, unit, validate=False).reshape(-1)
            via_oracle = oracle @ unit.reshape(-1)
            assert np.max(np.abs(via_channel - via_oracle)) < 1e-12, (i, j)


# ---------------------------------------------------------------------------
# Local contraction against the dense full-space reference: embed each 4x4
# Kraus operator with embed_neighborhood and take the operator sum.
# ---------------------------------------------------------------------------

_FAMILIES = st.one_of(
    st.floats(0.05, 0.95).map(ChannelFamily.gossip),
    st.just(ChannelFamily.ssc()),
    st.just(ChannelFamily.smc()),
)


@given(data=st.data(), m=st.integers(2, 6), family=_FAMILIES, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_local_apply_matches_dense_reference(data, m, family, seed):
    pair = data.draw(st.lists(st.integers(1, m), min_size=2, max_size=2, unique=True))
    ch = neighborhood_channel(family, pair, m)
    dense = [embed_neighborhood(a, pair, m) for a in ch.kraus_ops]
    rng = np.random.default_rng(seed)
    d = 1 << m
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    forward = sum(a @ x @ a.conj().T for a in dense)
    dual = sum(a.conj().T @ x @ a for a in dense)
    assert np.max(np.abs(apply_channel(ch, x, validate=False) - forward)) < 1e-12
    assert np.max(np.abs(dual_apply(ch, x) - dual)) < 1e-12
    rho = random_density(seed, d)
    expected = sum(a @ rho @ a.conj().T for a in dense)
    assert np.max(np.abs(apply_channel(ch, rho) - expected)) < 1e-12


def test_local_channel_site_order_sets_operator_factors():
    # Listing the sites as (k, j) is the same as conjugating the operator by the swap.
    rng = np.random.default_rng(11)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    reversed_sites = KrausChannel((u,), sites=(4, 2), m=4)
    swapped = KrausChannel((_SWAP @ u @ _SWAP,), sites=(2, 4), m=4)
    rho = random_density(12, 16)
    assert np.max(np.abs(apply_channel(reversed_sites, rho) - apply_channel(swapped, rho))) < 1e-12
    dense = embed_neighborhood(_SWAP @ u @ _SWAP, (2, 4), 4)
    assert np.max(np.abs(apply_channel(reversed_sites, rho) - dense @ rho @ dense.conj().T)) < 1e-12
    x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    assert np.max(np.abs(dual_apply(reversed_sites, x) - dense.conj().T @ x @ dense)) < 1e-12


def test_network_channels_hold_pair_operators():
    for family in (ChannelFamily.gossip(0.5), ChannelFamily.ssc(), ChannelFamily.smc()):
        ch = neighborhood_channel(family, (5, 2), 6)
        assert ch.sites == (2, 5) and ch.m == 6 and ch.dim == 64
        assert all(a.shape == (4, 4) for a in ch.kraus_ops)


def _complex_kraus_set(seed):
    """Three 4x4 Kraus operators with complex entries: the blocks of a random isometry."""
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4)))
    return tuple(v[4 * k : 4 * k + 4] for k in range(3))


def _kernel_inputs(m):
    """A transposed density matrix and a strided slice of a larger array: neither is C-contiguous."""
    d = 1 << m
    rng = np.random.default_rng(m)
    big = rng.standard_normal((2 * d, 3 * d)) + 1j * rng.standard_normal((2 * d, 3 * d))
    return {"transposed": random_density(m, d).T, "strided": big[::2, 1::3]}


@pytest.mark.parametrize("view", ["transposed", "strided"])
@pytest.mark.parametrize(
    "channel, dense_ops, superop_dtype",
    [
        (
            KrausChannel(_complex_kraus_set(5), sites=(5, 2), m=5),
            [embed_neighborhood(_SWAP @ a @ _SWAP, (2, 5), 5) for a in _complex_kraus_set(5)],
            complex,
        ),
        (ssc_channel((4, 1), 5), [embed_neighborhood(a, (1, 4), 5) for a in ssc_pair_channel().kraus_ops], np.float64),
        (
            smc_channel((2, 5), 5),
            [embed_neighborhood(a, (2, 5), 5) for a in smc_neighborhood_channel(2).kraus_ops],
            np.float64,
        ),
    ],
    ids=["complex-reversed", "ssc", "smc"],
)
def test_kernel_matches_dense_reference_on_non_contiguous_input(channel, dense_ops, superop_dtype, view):
    # Complex Kraus operators take the complex matmul; the families' exactly
    # real superoperators take the float64 one.
    assert channel.superop.dtype == superop_dtype
    x = _kernel_inputs(5)[view]
    assert not x.flags.c_contiguous
    before = x.copy()
    forward = sum(a @ x @ a.conj().T for a in dense_ops)
    dual = sum(a.conj().T @ x @ a for a in dense_ops)
    assert np.max(np.abs(apply_channel(channel, x, validate=False) - forward)) < 1e-12
    assert np.max(np.abs(dual_apply(channel, x) - dual)) < 1e-12
    assert np.array_equal(x, before)
