from itertools import permutations
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconsensus.qcore import bitstring_ket, ket_to_density, purity
from qconsensus.simulator import random_density
from qconsensus.symmetry import (
    _readout,
    dicke_ket,
    dicke_populations,
    excitation_counts,
    excitation_indices,
    global_observable,
    gossip_fixed_point,
    is_smc,
    is_ssc,
    per_site_expectations,
    schmidt_reconstruct,
    site_bits,
    smc_projector,
    v_dicke,
    v_smc,
    v_total,
)

from dense_reference import permutation_unitary

R2 = 1.0 / np.sqrt(2.0)


def test_dicke_pair_state():
    expected = np.array([0.0, R2, R2, 0.0], dtype=complex)
    assert np.max(np.abs(dicke_ket(2, 1) - expected)) < 1e-15


def test_dicke_no_excitations_is_all_zeros_string():
    for m in (2, 3, 5):
        assert np.allclose(dicke_ket(m, 0), bitstring_ket("0" * m))


def test_dicke_three_qubit_single_excitation():
    v = dicke_ket(3, 1)
    expected = np.zeros(8, dtype=complex)
    expected[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
    assert np.max(np.abs(v - expected)) < 1e-15


def test_dicke_rejects_bad_excitation():
    with pytest.raises(ValueError):
        dicke_ket(3, 4)


@pytest.mark.parametrize("m", range(2, 7))
def test_dicke_invariants(m):
    for k in range(m + 1):
        d = dicke_ket(m, k)
        assert abs(np.linalg.norm(d) - 1.0) < 1e-12
        ok, residual = is_ssc(ket_to_density(d), m)
        assert ok and residual <= 1e-12
        s = global_observable(m)
        assert np.max(np.abs(s @ d - 2.0 * (m - k) * d)) < 1e-12
        for k2 in range(k + 1, m + 1):
            assert abs(dicke_ket(m, k2).conj() @ d) <= 1e-12


def test_excitation_indices_enumeration():
    assert excitation_indices(2, 1) == [1, 2]
    assert excitation_indices(3, 0) == [0]
    assert excitation_indices(4, 2) == [3, 5, 6, 9, 10, 12]


def test_schmidt_three_qubits_explicit():
    # sqrt(2/3) |0> (x) (|01>+|10>)/sqrt2 + sqrt(1/3) |1> (x) |00>
    expected = np.zeros(8, dtype=complex)
    expected[[1, 2]] = np.sqrt(2.0 / 3.0) * R2
    expected[4] = np.sqrt(1.0 / 3.0)
    got = schmidt_reconstruct(3, 1, 1)
    assert np.max(np.abs(got - expected)) < 1e-12
    assert np.max(np.abs(got - dicke_ket(3, 1))) < 1e-12


def test_schmidt_zero_excitations_single_term():
    assert np.allclose(schmidt_reconstruct(4, 0, 2), bitstring_ket("0000"))


def test_schmidt_reconstruction_fidelity_exhaustive():
    for m in range(2, 7):
        for k in range(m + 1):
            for m_a in range(1, m):
                v = schmidt_reconstruct(m, k, m_a)
                overlap = abs(v.conj() @ dicke_ket(m, k)) ** 2
                assert overlap >= 1.0 - 1e-12, (m, k, m_a)


@pytest.mark.parametrize("k", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize(
    "call",
    [lambda k: dicke_ket(3, k), lambda k: excitation_indices(3, k), lambda k: schmidt_reconstruct(3, k, 1)],
    ids=["dicke_ket", "excitation_indices", "schmidt_reconstruct"],
)
def test_counts_that_are_not_integers_raise(call, k):
    with pytest.raises(ValueError, match="not an integer"):
        call(k)


def test_schmidt_rejects_bad_split():
    with pytest.raises(ValueError):
        schmidt_reconstruct(3, 1, 3)
    with pytest.raises(ValueError):
        schmidt_reconstruct(3, 1, 0)


def test_global_observable_two_qubits():
    assert np.allclose(global_observable(2), np.diag([4.0, 2.0, 2.0, 0.0]))


@pytest.mark.parametrize("m", [1, 2, 4])
def test_global_observable_extremes(m):
    s = global_observable(m)
    assert s[0, 0] == 2 * m  # |00...0>
    assert s[-1, -1] == 0  # |11...1>


def test_smc_projector_structure():
    p = smc_projector(3)
    expected = np.zeros((8, 8))
    expected[0, 0] = expected[7, 7] = 1.0
    assert np.array_equal(p, expected)
    assert abs(np.trace(p @ (np.eye(8) / 8)) - 2 / 8) < 1e-15


def test_smc_projector_annihilates_symmetric_pair():
    assert np.max(np.abs(smc_projector(2) @ dicke_ket(2, 1))) < 1e-15


def test_is_ssc_cases():
    ok, residual = is_ssc(np.eye(8, dtype=complex) / 8, 3)
    assert ok and residual == 0.0
    ok, _ = is_ssc(ket_to_density(bitstring_ket("01")), 2)
    assert not ok
    mixed = 0.5 * ket_to_density(bitstring_ket("01")) + 0.5 * ket_to_density(bitstring_ket("10"))
    ok, residual = is_ssc(mixed, 2)
    assert ok and residual < 1e-15
    ok, residual = is_ssc(np.full((8, 8), np.nan), 3)
    assert not ok and np.isnan(residual)


def test_is_smc_cases():
    mix = 0.5 * ket_to_density(bitstring_ket("000")) + 0.5 * ket_to_density(bitstring_ket("111"))
    ok, population, _ = is_smc(mix, 3)
    assert ok and abs(population - 1.0) < 1e-12

    ok, population, _ = is_smc(ket_to_density(dicke_ket(2, 1)), 2)
    assert not ok and abs(population) < 1e-12

    ghz = ket_to_density((bitstring_ket("000") + bitstring_ket("111")) / np.sqrt(2))
    ok, population, pairwise = is_smc(ghz, 3)
    assert ok and abs(population - 1.0) < 1e-12 and pairwise <= 1e-12

    ok, population, pairwise = is_smc(np.full((8, 8), np.nan), 3)
    assert not ok and np.isnan(population) and np.isnan(pairwise)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_smc_population_one_implies_ssc(m):
    # Any state supported on span{|0...0>, |1...1>} is permutation invariant.
    rng = np.random.default_rng(m)
    for _ in range(10):
        block = random_density(int(rng.integers(2**31)), 2)
        dim = 1 << m
        rho = np.zeros((dim, dim), dtype=complex)
        rho[np.ix_([0, dim - 1], [0, dim - 1])] = block
        ok, population, _ = is_smc(rho, m)
        assert ok and abs(population - 1.0) < 1e-12
        ssc_ok, residual = is_ssc(rho, m)
        assert ssc_ok and residual <= 1e-9, residual


def test_v_dicke_values():
    d = dicke_ket(2, 1)
    assert abs(v_dicke(ket_to_density(d), 2, 1)) < 1e-12
    assert abs(v_dicke(np.eye(4, dtype=complex) / 4, 2, 1) - 0.75) < 1e-12
    assert abs(v_dicke(ket_to_density(bitstring_ket("00")), 2, 1) - 1.0) < 1e-12


def test_v_total_values():
    m = 3
    assert abs(v_total(ket_to_density(dicke_ket(m, 0)), m) - m) < 1e-12
    mix = sum(ket_to_density(dicke_ket(m, k)) for k in range(m + 1)) / (m + 1)
    assert abs(v_total(mix, m) - m) < 1e-12


def test_v_total_minimum_is_m():
    for seed in range(10):
        rho = random_density(seed, 8)
        assert v_total(rho, 3) >= 3 - 1e-12


def test_v_smc_values():
    assert abs(v_smc(ket_to_density(bitstring_ket("111")), 3)) < 1e-12
    assert abs(v_smc(ket_to_density(dicke_ket(2, 1)), 2) - 1.0) < 1e-12
    assert abs(v_smc(np.eye(8, dtype=complex) / 8, 3) - 0.75) < 1e-12


def test_gossip_fixed_point_examples():
    # An already symmetric state is fixed by every permutation.
    sym = sum(ket_to_density(dicke_ket(3, k)) for k in range(4)) / 4
    assert np.max(np.abs(gossip_fixed_point(sym, 3) - sym)) < 1e-12

    rho = ket_to_density(bitstring_ket("001"))
    expected = (
        ket_to_density(bitstring_ket("001"))
        + ket_to_density(bitstring_ket("010"))
        + ket_to_density(bitstring_ket("100"))
    ) / 3
    assert np.max(np.abs(gossip_fixed_point(rho, 3) - expected)) < 1e-15

    rho2 = ket_to_density(bitstring_ket("01"))
    expected2 = 0.5 * ket_to_density(bitstring_ket("01")) + 0.5 * ket_to_density(bitstring_ket("10"))
    assert np.max(np.abs(gossip_fixed_point(rho2, 2) - expected2)) < 1e-15


def test_gossip_fixed_point_properties():
    s = global_observable(3)
    for seed in range(5):
        rho = random_density(seed + 60, 8)
        star = gossip_fixed_point(rho, 3)
        ok, residual = is_ssc(star, 3)
        assert ok and residual <= 1e-12
        drift = abs(np.trace(s @ star) - np.trace(s @ rho))
        assert drift < 1e-10
        assert purity(star) <= purity(rho) + 1e-12


def test_gossip_fixed_point_beyond_eight_sites():
    assert np.array_equal(gossip_fixed_point(np.eye(512) / 512, 9), np.eye(512) / 512)
    # One excitation averages to the uniform mixture of the 9 one-excitation strings.
    star = gossip_fixed_point(ket_to_density(bitstring_ket("100000000")), 9)
    expected = np.diag((excitation_counts(9) == 1) / 9)
    assert np.max(np.abs(star - expected)) < 1e-15


def test_per_site_expectations():
    rho = ket_to_density(bitstring_ket("01"))
    vals = per_site_expectations(rho, 2)
    assert np.allclose(vals, [2.0, 0.0])
    # At consensus every site reads the same value.
    w = ket_to_density(dicke_ket(3, 1))
    assert np.allclose(per_site_expectations(w, 3), [4.0 / 3.0] * 3)


@pytest.mark.parametrize("m", [4, 5])
def test_gossip_fixed_point_equals_exhaustive_average(m):
    rho = random_density(70 + m, 1 << m)
    expected = np.zeros_like(rho)
    for pi in permutations(range(1, m + 1)):
        u = permutation_unitary(pi, m)
        expected += u @ rho @ u.conj().T
    expected /= factorial(m)
    assert np.max(np.abs(gossip_fixed_point(rho, m) - expected)) < 1e-13


def test_gossip_fixed_point_returns_a_new_array():
    rho = random_density(3, 2)
    out = gossip_fixed_point(rho, 1)
    assert np.array_equal(out, rho)
    out[0, 0] = 7.0
    assert rho[0, 0] != 7.0


@given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_dicke_populations_match_dicke_ket_quadratic_forms(seed, m):
    rho = random_density(seed, 1 << m)
    expected = [np.real(dicke_ket(m, k).conj() @ rho @ dicke_ket(m, k)) for k in range(m + 1)]
    assert np.max(np.abs(dicke_populations(rho, m) - expected)) < 1e-14
    assert max(abs(v_dicke(rho, m, k) - (1 - expected[k])) for k in range(m + 1)) < 1e-14
    assert abs(v_total(rho, m) - sum(v_dicke(rho, m, k) for k in range(m + 1))) < 1e-13


@pytest.mark.parametrize("m", range(1, 11))
def test_dicke_populations_match_the_dicke_matrix_formula(m):
    # The sector-block sums against column sums of D * (Re(rho) @ D), D the Dicke kets.
    rng = np.random.default_rng(m)
    x = rng.standard_normal((1 << m, 1 << m)) + 1j * rng.standard_normal((1 << m, 1 << m))
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    popcounts = np.array([bin(n).count("1") for n in range(1 << m)])
    d = (popcounts[:, None] == np.arange(m + 1)) / np.sqrt([comb(m, k) for k in range(m + 1)])
    assert np.max(np.abs(dicke_populations(rho, m) - np.sum(d * (np.real(rho) @ d), axis=0))) <= 1e-12


@pytest.mark.parametrize("m", range(1, 11))
def test_excitation_counts_match_popcount(m):
    assert excitation_counts(m).tolist() == [bin(n).count("1") for n in range(1 << m)]


def test_site_bits_msb_first():
    assert site_bits(3)[0b011].tolist() == [0, 1, 1]
    assert site_bits(3)[0b100].tolist() == [1, 0, 0]


def test_cached_tables_are_read_only():
    for table in (site_bits(4), *_readout(4, 4), *_readout(4, 16)):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table.flat[0] = 1


def test_is_smc_single_site_has_no_pairwise_residual():
    ok, population, residual = is_smc(np.diag([0.25, 0.75]).astype(complex), 1)
    assert ok and abs(population - 1.0) < 1e-15 and residual == 0.0


@pytest.mark.parametrize("m", [2, 3, 5])
def test_site_bit_diagnostics_match_loop_reference(m):
    rho = random_density(90 + m, 1 << m)
    diag = np.real(np.diag(rho))
    bits = [[(n >> (m - 1 - i)) & 1 for i in range(m)] for n in range(1 << m)]
    p = {(j, i): sum(diag[n] for n in range(1 << m) if bits[n][i] == j) for j in (0, 1) for i in range(m)}
    residual = max(
        abs(sum(diag[n] for n in range(1 << m) if bits[n][a] == j and bits[n][b] == j) - p[j, b])
        for j in (0, 1) for a in range(m) for b in range(m) if a != b
    )
    assert abs(is_smc(rho, m)[2] - residual) < 1e-14
    assert np.max(np.abs(per_site_expectations(rho, m) - [2.0 * p[0, i] for i in range(m)])) < 1e-14


@pytest.mark.parametrize(
    "readout",
    [dicke_populations, v_total, lambda rho, m: v_dicke(rho, m, 1), is_smc, is_ssc, v_smc, per_site_expectations],
    ids=["dicke_populations", "v_total", "v_dicke", "is_smc", "is_ssc", "v_smc", "per_site_expectations"],
)
def test_symmetry_readouts_reject_a_wrong_size_state(readout):
    with pytest.raises(ValueError, match=r"shape \(8, 8\) does not match m=2"):
        readout(np.eye(8) / 8, 2)
