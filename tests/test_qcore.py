import numpy as np
import pytest

from qconsensus.dynamics import gossip_channel, smc_channel, smc_neighborhood_channel, ssc_channel
from qconsensus.qcore import (
    I2,
    PSD_ATOL,
    SIGMA_Z,
    KrausChannel,
    apply_channel,
    basis_ket,
    bitstring_ket,
    check_cptp,
    check_trace,
    completeness_residual,
    dual_apply,
    expectation,
    hermiticity_residual,
    ket,
    ket_to_density,
    load_matrix,
    partial_trace,
    pure_state_fidelity,
    purity,
    save_matrix,
    validate_density_matrix,
)
from qconsensus.simulator import random_density


def test_ket_normalizes():
    v = ket([3.0, 4.0j])
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert np.allclose(v, [0.6, 0.8j])


def test_ket_rejects_zero_vector():
    with pytest.raises(ValueError):
        ket([0.0, 0.0])


@pytest.mark.parametrize("index", [True, 1.0], ids=["bool", "float"])
def test_basis_ket_rejects_an_index_it_would_have_to_coerce(index):
    # numpy would read True as a mask over the whole vector and 1.0 as an IndexError.
    with pytest.raises(ValueError, match="basis index"):
        basis_ket(4, index)


def test_bitstring_ket_site_one_most_significant():
    assert np.argmax(np.abs(bitstring_ket("01"))) == 1
    assert np.argmax(np.abs(bitstring_ket("100"))) == 4
    with pytest.raises(ValueError):
        bitstring_ket("012")


def test_partial_trace_product_state():
    rho = ket_to_density(bitstring_ket("00"))
    reduced = partial_trace(rho, 2, {1})
    assert np.allclose(reduced, ket_to_density(basis_ket(2, 0)))


def test_partial_trace_symmetric_pair():
    # (|01>+|10>)/sqrt2: expanding and tracing out site 2 leaves I/2.
    psi = ket([0.0, 1.0, 1.0, 0.0])
    reduced = partial_trace(ket_to_density(psi), 2, {1})
    assert np.max(np.abs(reduced - I2 / 2)) < 1e-12


def test_partial_trace_keep_all_is_identity():
    rng = np.random.default_rng(5)
    rho_a = random_density(1, 2)
    rho_b = random_density(2, 2)
    rho = np.kron(rho_a, rho_b)
    assert np.allclose(partial_trace(rho, 2, {1, 2}), rho)
    del rng


def test_partial_trace_preserves_trace():
    rho = random_density(11, 8)
    reduced = partial_trace(rho, 3, {2})
    assert abs(np.trace(reduced) - 1.0) < 1e-12


def test_partial_trace_rejects_empty_keep():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, 2, set())


@pytest.mark.parametrize("keep", [[1.7], [True], ["1"]], ids=["float", "bool", "str"])
def test_partial_trace_rejects_sites_it_would_have_to_coerce(keep):
    with pytest.raises(ValueError, match="not an integer"):
        partial_trace(np.eye(4) / 4, 2, keep)
    assert np.allclose(partial_trace(np.eye(4) / 4, 2, [np.int64(1)]), np.eye(2) / 2)


@pytest.mark.parametrize(
    "rho, expected",
    [
        (np.eye(4, dtype=complex) / 4, 0.25),
        (ket_to_density(ket([1.0, 1.0j])), 1.0),
        (0.5 * ket_to_density(bitstring_ket("00")) + 0.5 * ket_to_density(bitstring_ket("11")), 0.5),
    ],
)
def test_purity_values(rho, expected):
    assert abs(purity(rho) - expected) < 1e-12


def test_expectation_values():
    assert abs(expectation(ket_to_density(basis_ket(2, 0)), SIGMA_Z) - 1.0) < 1e-12
    assert abs(expectation(I2 / 2, SIGMA_Z)) < 1e-12
    # S2 = 2I + sigma_z (x) I + I (x) sigma_z is diagonal (4, 2, 2, 0);
    # |01> reads off the second entry.
    s2 = 2 * np.eye(4) + np.kron(SIGMA_Z, I2) + np.kron(I2, SIGMA_Z)
    assert abs(expectation(ket_to_density(bitstring_ket("01")), s2) - 2.0) < 1e-12


def test_expectation_rejects_non_hermitian():
    with pytest.raises(ValueError):
        expectation(I2 / 2, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_validate_density_matrix_rejects_bad_states():
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        validate_density_matrix(np.eye(2))
    with pytest.raises(ValueError, match="positive"):
        validate_density_matrix(np.diag([1.5, -0.5]))


def _nan_diagonal_state():
    rho = np.eye(8, dtype=complex) / 8
    rho[2, 2] = np.nan
    return rho


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda: validate_density_matrix(np.full((4, 4), np.nan)), "not Hermitian: residual nan"),
        (lambda: validate_density_matrix(_nan_diagonal_state()), "not Hermitian: residual nan"),
        (lambda: check_trace(np.full((2, 2), np.nan)), "trace nan"),
        (lambda: KrausChannel((np.full((2, 2), np.nan),)), "not complete: residual nan"),
        (lambda: expectation(I2 / 2, np.full((2, 2), np.nan)), "not Hermitian: residual nan"),
        (lambda: expectation(np.full((2, 2), np.nan), SIGMA_Z), "imaginary part nan"),
        (lambda: ket([np.nan, 1.0]), "norm nan"),
    ],
    ids=["state", "state-one-entry", "trace", "kraus", "observable", "expectation-value", "ket"],
)
def test_tolerance_checks_fail_on_nan(check, message):
    with pytest.raises(ValueError, match=message):
        check()


@pytest.mark.parametrize("min_eig, accepted", [(-2 * PSD_ATOL, False), (-0.5 * PSD_ATOL, True)])
def test_validate_density_matrix_psd_floor(min_eig, accepted):
    # Hermitian, unit trace, one eigenvalue just outside or inside the floor.
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    spectrum = np.full(8, (1.0 - min_eig) / 7)
    spectrum[0] = min_eig
    rho = (q * spectrum) @ q.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    if accepted:
        validate_density_matrix(rho)
    else:
        with pytest.raises(ValueError, match="min eigenvalue -2.0"):
            validate_density_matrix(rho)


@pytest.mark.parametrize(
    "sites, m",
    [((1.5, 2), 3), (("1", 2), 3), ((True, 2), 3), ((1, 2), 3.0)],
    ids=["site-float", "site-str", "site-bool", "m-float"],
)
def test_kraus_channel_rejects_sites_and_m_it_would_have_to_coerce(sites, m):
    with pytest.raises(ValueError, match="not an integer"):
        KrausChannel((np.eye(4, dtype=complex),), sites=sites, m=m)


def test_kraus_channel_accepts_numpy_integers():
    ch = KrausChannel((np.eye(4, dtype=complex),), sites=(np.int64(3), np.int32(1)), m=np.int64(3))
    assert ch.sites == (3, 1) and ch.m == 3 and all(type(s) is int for s in (*ch.sites, ch.m))


def test_apply_channel_identity():
    ch = KrausChannel((np.eye(4, dtype=complex),), label="id")
    rho = random_density(3, 4)
    assert np.allclose(apply_channel(ch, rho), rho)


def test_apply_channel_dephasing_kills_coherence():
    ch = KrausChannel((np.sqrt(0.5) * I2, np.sqrt(0.5) * SIGMA_Z), label="dephase")
    plus = ket([1.0, 1.0])
    out = apply_channel(ch, ket_to_density(plus))
    assert np.max(np.abs(out - I2 / 2)) < 1e-12


def test_apply_channel_gossip_mixture():
    ch = gossip_channel((1, 2), 2, 0.3)
    out = apply_channel(ch, ket_to_density(bitstring_ket("01")))
    expected = 0.7 * ket_to_density(bitstring_ket("01")) + 0.3 * ket_to_density(bitstring_ket("10"))
    assert np.max(np.abs(out - expected)) < 1e-12


def test_apply_channel_dim_mismatch():
    ch = gossip_channel((1, 2), 2, 0.5)
    with pytest.raises(ValueError):
        apply_channel(ch, np.eye(8) / 8)


def _family_channels_m3():
    return [
        gossip_channel((1, 2), 3, 0.5),
        ssc_channel((2, 3), 3),
        smc_channel((1, 3), 3),
    ]


def test_dual_is_unital_for_every_family():
    for ch in _family_channels_m3():
        out = dual_apply(ch, np.eye(ch.dim, dtype=complex))
        assert np.max(np.abs(out - np.eye(ch.dim))) < 1e-12, ch.label


def test_dual_of_gossip_matches_symbolic_adjoint():
    alpha = 0.37
    ch = gossip_channel((1, 2), 2, alpha)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    expected = (1 - alpha) * x + alpha * swap.conj().T @ x @ swap
    assert np.max(np.abs(dual_apply(ch, x) - expected)) < 1e-12


def test_duality_relation_random_pairs():
    # Tr[X E(rho)] = Tr[E^dag(X) rho] on 100 random pairs per family.
    rng = np.random.default_rng(123)
    for ch in _family_channels_m3():
        for _ in range(100):
            x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            rho = random_density(int(rng.integers(2**31)), 8)
            lhs = np.trace(x @ apply_channel(ch, rho))
            rhs = np.trace(dual_apply(ch, x) @ rho)
            assert abs(lhs - rhs) < 1e-10, ch.label


def test_check_cptp_gossip():
    report = check_cptp(gossip_channel((1, 2), 2, 0.5))
    assert report.completeness_residual <= 1e-12
    assert report.is_unital


def test_check_cptp_ssc_pair_not_unital():
    from qconsensus.dynamics import ssc_pair_channel

    report = check_cptp(ssc_pair_channel())
    assert report.completeness_residual <= 1e-12
    assert not report.is_unital


def test_check_cptp_flags_incomplete_set():
    report = check_cptp([I2 / 2])
    assert abs(report.completeness_residual - 0.75) < 1e-12


def test_kraus_channel_rejects_incomplete_ops():
    with pytest.raises(ValueError, match="complete"):
        KrausChannel((I2 / 2,))
    with pytest.raises(ValueError):
        KrausChannel(())


def test_kraus_channel_defaults_to_whole_register():
    ch = KrausChannel((np.eye(4, dtype=complex),))
    assert ch.sites == (1, 2) and ch.m == 2 and ch.dim == 4
    placed = KrausChannel((np.eye(4, dtype=complex),), sites=(3, 1), m=5)
    assert placed.sites == (3, 1) and placed.dim == 32


@pytest.mark.parametrize(
    "sites, m",
    [((2, 2), 3), ((0, 1), 3), ((1, 4), 3), ((1,), 3), ((1, 2, 3), 3), ((1, 3), None)],
    ids=["duplicate", "below-range", "above-range", "too-few", "too-many", "beyond-default-m"],
)
def test_kraus_channel_rejects_sites_that_do_not_fit(sites, m):
    with pytest.raises(ValueError, match="sites"):
        KrausChannel((np.eye(4, dtype=complex),), sites=sites, m=m)


@pytest.mark.parametrize("dim", [1, 3, 6])
def test_kraus_channel_rejects_non_power_of_two_dims(dim):
    with pytest.raises(ValueError, match="power of 2"):
        KrausChannel((np.eye(dim, dtype=complex),))


def test_channels_preserve_density_invariants():
    # Trace and positivity preserved on 100 random states across families.
    channels = _family_channels_m3()
    for i in range(100):
        rho = random_density(1000 + i, 8)
        out = apply_channel(channels[i % 3], rho, validate=False)
        assert abs(np.trace(out) - 1.0) < 1e-9
        assert hermiticity_residual(out) < 1e-9
        assert np.linalg.eigvalsh(0.5 * (out + out.conj().T))[0] > -1e-9


def test_gossip_contracts_purity():
    ch = gossip_channel((1, 2), 3, 0.5)
    for i in range(20):
        rho = random_density(50 + i, 8)
        assert purity(apply_channel(ch, rho)) <= purity(rho) + 1e-12


def test_pure_state_fidelity():
    psi = bitstring_ket("01")
    assert abs(pure_state_fidelity(ket_to_density(psi), psi) - 1.0) < 1e-12
    assert abs(pure_state_fidelity(np.eye(4) / 4, psi) - 0.25) < 1e-12


def test_matrix_roundtrip(tmp_path):
    rho = random_density(77, 4)
    path = tmp_path / "rho.json"
    save_matrix(path, rho)
    back = load_matrix(path)
    assert np.array_equal(back, rho)


def test_load_matrix_rejects_bad_payload(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2, "entries": [[1.0, 0.0]]}')
    with pytest.raises(ValueError, match="entries"):
        load_matrix(path)


def test_completeness_residual_identity():
    assert completeness_residual([I2]) == 0.0


@pytest.mark.parametrize(
    "channel",
    [gossip_channel((1, 2), 2, a) for a in (0.3, 0.5, 0.999, 0.7123456789)]
    + [ssc_channel((1, 2), 2), smc_channel((1, 2), 2), smc_neighborhood_channel(3)],
    ids=["gossip-0.3", "gossip-0.5", "gossip-0.999", "gossip-0.7123456789", "ssc", "smc", "smc3"],
)
def test_broadcast_superoperator_and_completeness_are_bit_identical_to_the_kron_sums(channel):
    # KrausChannel forms both with one broadcast product over the operator stack.
    ops = channel.kraus_ops
    superop = sum(np.kron(a, a.conj()) for a in ops)
    assert channel.superop.dtype == np.float64 and not superop.imag.any()
    assert channel.superop.tobytes() == np.ascontiguousarray(superop.real).tobytes()
    acc = sum(a.conj().T @ a for a in ops)
    assert completeness_residual(ops) == float(np.max(np.abs(acc - np.eye(len(acc)))))
