from itertools import combinations

import numpy as np
import pytest

from qconsensus import simulator
from qconsensus.dynamics import ChannelFamily, build_channels
from qconsensus.network import InputError, NetworkTopology
from qconsensus.qcore import (
    _apply_pairs,
    apply_channel,
    bitstring_ket,
    check_trace,
    ket_to_density,
    pure_state_fidelity,
    purity,
    validate_density_matrix,
)
from qconsensus.simulator import (
    Schedule,
    apply_flip,
    convergence_probability,
    lyapunov_gap,
    measure_global_observable,
    measure_local_z,
    prepare_dicke,
    random_density,
    run,
    trajectory_csv_lines,
    write_trajectory_csv,
)
from qconsensus.symmetry import dicke_ket, dicke_populations, excitation_counts, gossip_fixed_point, v_smc

PATH3 = NetworkTopology(m=3, neighborhoods=((1, 2), (2, 3)))


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(mode="sometimes")
    with pytest.raises(ValueError):
        Schedule.cyclic(())
    with pytest.raises(ValueError):
        Schedule(mode="random")  # no seed
    with pytest.raises(InputError, match="cyclic schedules take no seed"):
        Schedule(mode="cyclic", seed=5)
    with pytest.raises(InputError, match="random schedules take no order"):
        Schedule(mode="random", order=(0, 1), seed=3)
    assert Schedule.cyclic((0, 1)).order == (0, 1)
    assert Schedule.random(seed=3).seed == 3


def _smc_estimate(**overrides):
    args = dict(gamma=0.1, horizon=5, trials=3, seed=1) | overrides
    return convergence_probability(random_density(1, 8), PATH3, ChannelFamily.smc(), **args)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Schedule.cyclic((0.7, 1)),
        lambda: Schedule.cyclic(("0", 1)),
        lambda: Schedule.cyclic((True, 0)),
        lambda: Schedule.random(seed=2.5),
        lambda: run(random_density(1, 8), PATH3, ChannelFamily.ssc(), Schedule.cyclic(), True),
        lambda: run(random_density(1, 8), PATH3, ChannelFamily.ssc(), Schedule.cyclic(), 2.0),
        lambda: _smc_estimate(trials=True),
        lambda: _smc_estimate(trials=3.0),
        lambda: _smc_estimate(horizon=5.0),
        lambda: random_density(1, 4.0),
        lambda: random_density(1, True),
    ],
    ids=[
        "order-float", "order-str", "order-bool", "seed-float", "steps-bool", "steps-float",
        "trials-bool", "trials-float", "horizon-float", "dim-float", "dim-bool",
    ],
)
def test_schedule_rejects_values_it_would_have_to_coerce(make):
    with pytest.raises(InputError, match="not an integer"):
        make()


def test_schedule_accepts_numpy_integers():
    assert Schedule.cyclic((np.int64(1), np.int32(0))).order == (1, 0)
    assert Schedule.random(seed=np.uint32(5)).seed == 5


@pytest.mark.parametrize("seed", [2.5, True, "3"], ids=["float", "bool", "str"])
def test_schedule_checks_its_seed_when_built_directly(seed):
    with pytest.raises(ValueError, match="schedule seed .* is not an integer"):
        Schedule(mode="random", seed=seed)
    built = Schedule(mode="random", seed=np.int64(7))
    assert built.seed == 7 and type(built.seed) is int


def test_random_density_deterministic():
    a = random_density(42, 8)
    b = random_density(42, 8)
    assert np.array_equal(a, b)
    c = random_density(43, 8)
    assert not np.array_equal(a, c)


def test_random_density_is_valid_state():
    for seed in range(25):
        rho = random_density(seed, 4)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] > -1e-12


def test_random_density_mean_is_maximally_mixed():
    acc = np.zeros((4, 4), dtype=complex)
    n = 1000
    for seed in range(n):
        acc += random_density(seed, 4)
    assert np.max(np.abs(acc / n - np.eye(4) / 4)) < 0.05


def test_random_density_rejects_dim_one():
    with pytest.raises(ValueError):
        random_density(0, 1)


def test_run_ssc_converges_to_dicke_state():
    rho0 = ket_to_density(bitstring_ket("011"))
    result = run(rho0, PATH3, ChannelFamily.ssc(), Schedule.cyclic((0, 1)), 200)
    assert pure_state_fidelity(result.final_state, dicke_ket(3, 2)) >= 1 - 1e-6
    assert len(result.records) == 200
    assert result.records[-1].step == 200


def test_run_gossip_reaches_permutation_average():
    rho0 = ket_to_density(bitstring_ket("001"))
    result = run(rho0, PATH3, ChannelFamily.gossip(0.5), Schedule.cyclic(), 500)
    target = gossip_fixed_point(rho0, 3)
    assert np.max(np.abs(result.final_state - target)) < 1e-6
    assert abs(result.records[-1].purity - 1 / 3) < 1e-6
    purities = [rec.purity for rec in result.records]
    assert all(b <= a + 1e-12 for a, b in zip(purities, purities[1:]))


def test_run_smc_reaches_consensus_and_conserves_expectation():
    rho0 = random_density(7, 8)
    result = run(rho0, PATH3, ChannelFamily.smc(), Schedule.cyclic(), 300)
    assert result.records[-1].smc_population >= 1 - 1e-6
    s0 = result.records[0].s_expectation
    assert all(abs(rec.s_expectation - s0) <= 1e-9 for rec in result.records)


def test_run_per_step_lyapunov_monotonicity():
    rho0 = random_density(21, 8)
    ssc = run(rho0, PATH3, ChannelFamily.ssc(), Schedule.cyclic(), 100)
    vs = [rec.v_total for rec in ssc.records]
    assert all(b <= a + 1e-12 for a, b in zip(vs, vs[1:]))
    smc = run(rho0, PATH3, ChannelFamily.smc(), Schedule.random(seed=4), 100)
    vs = [rec.v_smc for rec in smc.records]
    assert all(b <= a + 1e-12 for a, b in zip(vs, vs[1:]))


def test_run_gossip_keeps_dicke_populations():
    rho0 = random_density(3, 8)
    result = run(rho0, PATH3, ChannelFamily.gossip(0.5), Schedule.random(seed=11), 200)
    first = result.records[0].dicke_populations
    for rec in result.records:
        assert all(abs(p - q) <= 1e-9 for p, q in zip(rec.dicke_populations, first))


def test_run_is_deterministic_given_seed():
    rho0 = random_density(5, 8)
    a = run(rho0, PATH3, ChannelFamily.smc(), Schedule.random(seed=99), 150)
    b = run(rho0, PATH3, ChannelFamily.smc(), Schedule.random(seed=99), 150)
    assert np.array_equal(a.final_state, b.final_state)
    assert a.records == b.records


def test_run_validates_arguments():
    rho0 = random_density(1, 8)
    with pytest.raises(ValueError):
        run(rho0, PATH3, ChannelFamily.ssc(), Schedule.cyclic(), 0)
    with pytest.raises(ValueError):
        run(random_density(1, 4), PATH3, ChannelFamily.ssc(), Schedule.cyclic(), 5)
    with pytest.raises(ValueError, match="cover"):
        run(rho0, PATH3, ChannelFamily.ssc(), Schedule.cyclic((0, 0)), 5)
    nan_entry = np.eye(8, dtype=complex) / 8
    nan_entry[2, 2] = np.nan
    with pytest.raises(ValueError, match="residual nan"):
        run(nan_entry, PATH3, ChannelFamily.ssc(), Schedule.cyclic(), 5)


def test_run_warns_on_disconnected_topology():
    top = NetworkTopology(m=4, neighborhoods=((1, 2), (3, 4)))
    with pytest.warns(UserWarning, match="not connected"):
        run(random_density(2, 16), top, ChannelFamily.ssc(), Schedule.cyclic(), 3)


def test_run_early_stop_truncates():
    rho0 = ket_to_density(dicke_ket(3, 1))
    result = run(rho0, PATH3, ChannelFamily.ssc(), Schedule.cyclic(), 500, early_stop=True)
    assert len(result.records) == 2 * 3  # already converged; stops after 2m steps


def test_gossip_early_stop_runs_beyond_eight_sites():
    m = 9
    path = NetworkTopology(m=m, neighborhoods=tuple((i, i + 1) for i in range(1, m)))
    rho0 = ket_to_density(dicke_ket(m, 4))
    gossip = ChannelFamily.gossip(0.5)
    assert len(run(rho0, path, gossip, Schedule.cyclic(), 3, early_stop=True).records) == 3
    # A Dicke state is its own permutation average: the run stops after 2m steps.
    assert len(run(rho0, path, gossip, Schedule.cyclic(), 100, early_stop=True).records) == 2 * m


def test_cyclic_and_random_schedules_share_limit():
    rho0 = random_density(17, 8)
    cyclic = run(rho0, PATH3, ChannelFamily.ssc(), Schedule.cyclic(), 500)
    v_ref = cyclic.records[-1].v_total
    for seed in range(20):
        rnd = run(rho0, PATH3, ChannelFamily.ssc(), Schedule.random(seed=seed), 500)
        assert abs(rnd.records[-1].v_total - v_ref) < 1e-4


def test_convergence_probability_trivial_bounds():
    rho0 = random_density(9, 8)
    # Gamma above the Lyapunov maximum is satisfied even with no dynamics.
    assert convergence_probability(rho0, PATH3, ChannelFamily.smc(), 10.0, 0, 20, 1) == 1.0
    # Horizon zero with a far-from-consensus start never satisfies small gamma.
    far = ket_to_density(dicke_ket(3, 1))
    assert convergence_probability(far, PATH3, ChannelFamily.smc(), 0.01, 0, 20, 1) == 0.0


def test_convergence_probability_smc_short():
    rho0 = random_density(13, 8)
    estimate = convergence_probability(rho0, PATH3, ChannelFamily.smc(), 0.01, 150, 40, 7)
    assert estimate >= 0.9


def test_convergence_probability_rejects_bad_gamma():
    with pytest.raises(ValueError):
        convergence_probability(random_density(1, 8), PATH3, ChannelFamily.smc(), 0.0, 10, 5, 1)
    for gamma in (True, "0.1"):
        with pytest.raises(InputError, match="not a real number"):
            _smc_estimate(gamma=gamma)


@pytest.mark.parametrize(
    "make",
    [lambda: Schedule.random(-1), lambda: random_density(-1, 4), lambda: _smc_estimate(seed=-1)],
    ids=["schedule", "random_density", "convergence_probability"],
)
def test_seeds_must_be_non_negative(make):
    with pytest.raises(InputError, match="seed -1 is negative"):
        make()


def test_convergence_probability_deterministic():
    rho0 = random_density(29, 8)
    a = convergence_probability(rho0, PATH3, ChannelFamily.ssc(), 0.05, 60, 25, 5)
    b = convergence_probability(rho0, PATH3, ChannelFamily.ssc(), 0.05, 60, 25, 5)
    assert a == b


def test_measure_local_z_eigenstate():
    rng = np.random.default_rng(0)
    rho = ket_to_density(bitstring_ket("00"))
    outcome, post = measure_local_z(rho, 1, 2, rng)
    assert outcome == +1
    assert np.max(np.abs(post - rho)) < 1e-12


def test_measure_local_z_on_symmetric_pair():
    # Site 1 of (|01>+|10>)/sqrt2: +1 collapses to |01>, -1 to |10>.
    rho = ket_to_density(dicke_ket(2, 1))
    seen = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        outcome, post = measure_local_z(rho, 1, 2, rng)
        seen.add(outcome)
        target = bitstring_ket("01") if outcome == +1 else bitstring_ket("10")
        assert np.max(np.abs(post - ket_to_density(target))) < 1e-12
    assert seen == {+1, -1}


def test_measure_local_z_statistics():
    rng = np.random.default_rng(123)
    rho = np.eye(2, dtype=complex) / 2
    hits = sum(1 for _ in range(10000) if measure_local_z(rho, 1, 1, rng)[0] == +1)
    assert abs(hits / 10000 - 0.5) < 0.02


def test_measure_global_observable_eigenstates():
    rng = np.random.default_rng(5)
    k, post = measure_global_observable(ket_to_density(bitstring_ket("011")), 3, rng)
    assert k == 2
    rho = ket_to_density(dicke_ket(3, 1))
    k, post = measure_global_observable(rho, 3, rng)
    assert k == 1
    assert np.max(np.abs(post - rho)) < 1e-12


def test_measure_global_observable_statistics():
    # I/4 on two qubits: subspace dimensions 1, 2, 1 give probs 1/4, 1/2, 1/4.
    rng = np.random.default_rng(31)
    rho = np.eye(4, dtype=complex) / 4
    counts = np.zeros(3)
    n = 4000
    for _ in range(n):
        k, _ = measure_global_observable(rho, 2, rng)
        counts[k] += 1
    assert np.max(np.abs(counts / n - [0.25, 0.5, 0.25])) < 0.03


class _PickLastPossible:
    """Generator stand-in whose choice is the last outcome of nonzero probability."""

    def choice(self, n, p):
        return int(np.flatnonzero(p)[-1])


def test_measure_global_observable_skips_negligible_sectors():
    # The k=2 sector has weight 1e-15, below the probability floor: it must not
    # be sampled, and the post-state must not be divided by that weight.
    rho = np.diag([1.0 - 1e-15, 0.0, 0.0, 1e-15]).astype(complex)
    k, post = measure_global_observable(rho, 2, _PickLastPossible())
    assert k == 0
    assert np.max(np.abs(post - ket_to_density(bitstring_ket("00")))) < 1e-12
    rng = np.random.default_rng(2)
    assert all(measure_global_observable(rho, 2, rng)[0] == 0 for _ in range(200))


def test_apply_flip():
    rho = ket_to_density(bitstring_ket("00"))
    flipped = apply_flip(rho, 2, 2)
    assert np.max(np.abs(flipped - ket_to_density(bitstring_ket("01")))) < 1e-15
    assert np.array_equal(apply_flip(flipped, 2, 2), rho)
    mixed = random_density(8, 4)
    from qconsensus.qcore import purity

    assert abs(purity(apply_flip(mixed, 1, 2)) - purity(mixed)) < 1e-15


def test_prepare_dicke_reaches_w_state():
    rng = np.random.default_rng(2)
    result = prepare_dicke(random_density(4, 8), 1, PATH3, rng, steps=300)
    assert result.fidelity >= 1 - 1e-6
    assert any(event.kind == "site" for event in result.measurement_log)


def test_prepare_dicke_with_observable_measurement_is_invariant():
    rng = np.random.default_rng(3)
    rho0 = ket_to_density(dicke_ket(3, 1))
    result = prepare_dicke(rho0, 1, PATH3, rng, use_s_measurement=True, steps=100)
    assert abs(result.fidelity - 1.0) <= 1e-12
    kinds = [event.kind for event in result.measurement_log]
    assert kinds == ["global"]


def test_prepare_dicke_target_zero_lands_exactly():
    rng = np.random.default_rng(9)
    result = prepare_dicke(random_density(6, 8), 0, PATH3, rng, steps=10)
    assert abs(result.fidelity - 1.0) < 1e-12
    assert np.max(np.abs(result.final_state - ket_to_density(bitstring_ket("000")))) < 1e-12


def test_prepare_dicke_validates_inputs():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        prepare_dicke(random_density(1, 8), 4, PATH3, rng)
    disconnected = NetworkTopology(m=3, neighborhoods=((1, 2),))
    with pytest.raises(ValueError, match="connected"):
        prepare_dicke(random_density(1, 8), 1, disconnected, rng)


PAIR2 = NetworkTopology(m=2, neighborhoods=((1, 2),))


@pytest.mark.parametrize(
    "call",
    [
        lambda rho: apply_flip(rho, 1, 2),
        lambda rho: measure_local_z(rho, 1, 2, np.random.default_rng(0)),
        lambda rho: prepare_dicke(rho, 1, PAIR2, np.random.default_rng(0)),
        lambda rho: convergence_probability(rho, PAIR2, ChannelFamily.smc(), 0.8, horizon=0, trials=1, seed=0),
        lambda rho: v_smc(rho, 2),
    ],
    ids=["apply_flip", "measure_local_z", "prepare_dicke", "convergence_probability", "v_smc"],
)
def test_wrong_size_states_raise_the_shape_error(call):
    with pytest.raises(ValueError, match=r"shape \(8, 8\) does not match m=2"):
        call(np.eye(8) / 8)


def test_run_checks_the_shape_before_it_factorizes(monkeypatch):
    calls = []

    def counting_validate(rho):
        calls.append(rho.shape)
        return validate_density_matrix(rho)

    monkeypatch.setattr(simulator, "validate_density_matrix", counting_validate)
    with pytest.raises(ValueError, match=r"shape \(8, 8\) does not match m=2"):
        run(np.eye(8) / 8, PAIR2, ChannelFamily.ssc(), Schedule.cyclic(), 1)
    assert calls == []


@pytest.mark.parametrize("site", [True, 1.0], ids=["bool", "float"])
@pytest.mark.parametrize(
    "call",
    [lambda rho, site: apply_flip(rho, site, 2), lambda rho, site: measure_local_z(rho, site, 2, np.random.default_rng(0))],
    ids=["apply_flip", "measure_local_z"],
)
def test_sites_that_are_not_integers_raise(call, site):
    with pytest.raises(ValueError, match="not an integer"):
        call(np.eye(4) / 4, site)


def test_random_schedule_has_no_default_seed():
    with pytest.raises(TypeError):
        Schedule.random()


def test_trajectory_csv_shape(tmp_path):
    result = run(random_density(12, 8), PATH3, ChannelFamily.ssc(), Schedule.cyclic(), 5)
    lines = trajectory_csv_lines(result.records, 3)
    assert lines[0] == (
        "step,purity,s_expectation,v_total,v_smc,smc_population,"
        "pop_dicke_0,pop_dicke_1,pop_dicke_2,pop_dicke_3"
    )
    assert len(lines) == 6
    for line in lines:
        assert len(line.split(",")) == 3 + 7
    path = tmp_path / "traj.csv"
    write_trajectory_csv(result.records, 3, path)
    assert path.read_text().splitlines() == lines


def test_convergence_probability_rejects_disconnected_topology():
    top = NetworkTopology(m=4, neighborhoods=((1, 2), (3, 4)))
    with pytest.raises(ValueError, match="connected"):
        convergence_probability(random_density(2, 16), top, ChannelFamily.ssc(), 0.01, 5, 3, 1)


def _replayed_trial_gaps(rho0, topology, family, horizon, trials, seed):
    """Final Lyapunov gap of every trial, replayed with `run` on the documented streams."""
    target = gossip_fixed_point(rho0, topology.m) if family.kind == "gossip" else None
    gaps = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        schedule = Schedule.random(seed=int(child.generate_state(1)[0]))
        final = run(rho0, topology, family, schedule, horizon, validate=False).final_state
        gaps.append(lyapunov_gap(family, final, topology.m, gossip_target=target))
    return sorted(gaps)


@pytest.mark.parametrize(
    "family, topology",
    [
        (ChannelFamily.gossip(0.3), NetworkTopology(m=4, neighborhoods=((1, 2), (2, 3), (3, 4)))),
        (ChannelFamily.ssc(), NetworkTopology(m=5, neighborhoods=((1, 2), (2, 3), (3, 4), (4, 5)))),
        (ChannelFamily.smc(), NetworkTopology(m=5, neighborhoods=((1, 2), (2, 3), (3, 4), (4, 5)))),
        (ChannelFamily.ssc(), NetworkTopology(m=5, neighborhoods=((1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 4)))),
        (ChannelFamily.smc(), NetworkTopology(m=4, neighborhoods=((1, 2), (2, 3), (3, 4)), probabilities=(0.6, 0.3, 0.1))),
    ],
    ids=["gossip-path4", "ssc-path5", "smc-path5", "ssc-ring5-chord", "smc-path4-weighted"],
)
def test_convergence_probability_equals_trial_by_trial_replay(family, topology):
    rho0 = random_density(37, 1 << topology.m)
    horizon, trials, seed = 12, 10, 2024
    gaps = _replayed_trial_gaps(rho0, topology, family, horizon, trials, seed)
    # gamma halfway between each pair of consecutive distinct gaps: k trials hit, so every trial's hit is
    # checked (trials with equal gaps, such as equal picks, hit together).
    distinct = [k for k in range(1, trials) if gaps[k] - gaps[k - 1] > 1e-9]
    assert trials // 2 in distinct and len(distinct) >= trials // 2
    for k in distinct:
        gamma = 0.5 * (gaps[k - 1] + gaps[k])
        assert convergence_probability(rho0, topology, family, gamma, horizon, trials, seed) == k / trials


def _kernel_graphs(m):
    path = tuple((i, i + 1) for i in range(1, m))
    chord = ((1, m),) if m > 2 else ()
    chord += ((1, m // 2 + 1),) if m >= 4 else ()
    return {"path": path, "ring-chord": path + chord, "complete": tuple(combinations(range(1, m + 1), 2))}


@pytest.mark.parametrize("graph", ["path", "ring-chord", "complete"])
@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize(
    "family", [ChannelFamily.gossip(0.3), ChannelFamily.ssc(), ChannelFamily.smc()], ids=["gossip", "ssc", "smc"]
)
def test_pair_kernel_trial_matches_the_dense_run_replay(family, m, graph):
    topology = NetworkTopology(m=m, neighborhoods=_kernel_graphs(m)[graph])
    rho0 = random_density(50 + m, 1 << m)
    steps = [(ch, ch.superop) for ch in build_channels(family, topology)]
    # A trial evolves the whole state for gossip and only its real part for ssc and smc.
    start = rho0 if family.kind == "gossip" else rho0.real
    for child in np.random.SeedSequence(11).spawn(3):
        seed = int(child.generate_state(1)[0])
        picks = simulator._random_picks(topology, seed, 25)
        out = _apply_pairs(start, [steps[i] for i in picks])
        final = run(rho0, topology, family, Schedule.random(seed=seed), 25, validate=False).final_state
        expected = final if family.kind == "gossip" else final.real
        assert out.dtype == expected.dtype
        assert np.max(np.abs(out - expected)) <= 1e-12


def _hs_distance_sq(a, b):
    return float(np.sum(np.abs(a - b) ** 2))


@pytest.mark.parametrize("graph", ["path", "ring-chord", "complete"])
@pytest.mark.parametrize("m", range(2, 7))
def test_gossip_gap_is_the_squared_distance_to_the_permutation_average(m, graph):
    # Gossip commutes with the permutation average P, an orthogonal projector,
    # so purity(rho_t) - purity(P(rho0)) = ||rho_t - P(rho0)||^2 at every step.
    topology = NetworkTopology(m=m, neighborhoods=_kernel_graphs(m)[graph])
    family = ChannelFamily.gossip(0.3)
    channels = build_channels(family, topology)
    for seed in range(2):
        rho = random_density(80 + 10 * m + seed, 1 << m)
        target = gossip_fixed_point(rho, m)
        for idx in simulator._random_picks(topology, seed, 40):
            rho = apply_channel(channels[idx], rho, validate=False)
            gap = lyapunov_gap(family, rho, m, gossip_target=target)
            assert abs(gap - _hs_distance_sq(rho, target)) <= 1e-12


@pytest.mark.parametrize("validate", [True, False], ids=["validated", "unvalidated"])
@pytest.mark.parametrize("start", ["dense", "ghz"])
@pytest.mark.parametrize("graph", ["path", "ring-chord", "complete"])
@pytest.mark.parametrize("m", range(2, 8))
@pytest.mark.parametrize(
    "family", [ChannelFamily.gossip(0.3), ChannelFamily.ssc(), ChannelFamily.smc()], ids=["gossip", "ssc", "smc"]
)
def test_carried_run_records_match_the_canonical_replay(monkeypatch, family, m, graph, start, validate):
    # run reads its records, trace checks and early-stop gaps from the pair
    # kernel's site-relabeled layout; the replay reads the canonical matrix.
    # The GHZ start is a fixed point of all three families, so every run
    # stops early on it.  The replay's gossip gap is the squared
    # Hilbert-Schmidt distance to the target, run's the purity difference.
    topology = NetworkTopology(m=m, neighborhoods=_kernel_graphs(m)[graph])
    ghz = ket_to_density(bitstring_ket("0" * m) + bitstring_ket("1" * m)) / 2
    rho0 = random_density(70 + m, 1 << m) if start == "dense" else ghz
    traces = []

    def recording_check_trace(diag):
        traces.append(complex(np.sum(diag)))
        check_trace(diag)

    monkeypatch.setattr(simulator, "check_trace", recording_check_trace)
    result = run(rho0, topology, family, Schedule.random(seed=m), 30, validate=validate, early_stop=True)
    channels = build_channels(family, topology)
    target, s_diag = gossip_fixed_point(rho0, m), 2.0 * (m - excitation_counts(m))
    states, quiet = [rho0], 0
    for idx in simulator._random_picks(topology, m, 30):
        states.append(apply_channel(channels[idx], states[-1], validate=False))
        gap = _hs_distance_sq(states[-1], target) if family.kind == "gossip" else lyapunov_gap(family, states[-1], m)
        quiet = quiet + 1 if gap < 1e-10 else 0
        if quiet >= 2 * m:
            break
    assert len(result.records) == len(states) - 1
    assert len(traces) == (len(states) - 1 if validate else 0)
    for record, rho in zip(result.records, states[1:]):
        got = [*record.dicke_populations, record.purity, record.s_expectation, record.v_smc, record.v_total]
        pops = dicke_populations(rho, m)
        want = [*pops, purity(rho), s_diag @ np.real(np.diag(rho)), v_smc(rho, m), m + 1 - pops.sum()]
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-12
    for trace, rho in zip(traces, states[1:]):
        assert abs(trace - np.trace(rho)) <= 1e-12
    assert result.final_state.tobytes() == states[-1].tobytes()


@pytest.mark.parametrize(
    "family", [ChannelFamily.gossip(0.3), ChannelFamily.ssc(), ChannelFamily.smc()], ids=["gossip", "ssc", "smc"]
)
def test_long_validated_run_keeps_invariants_without_renormalisation(family):
    topology = NetworkTopology(m=4, neighborhoods=((1, 2), (2, 3), (3, 4), (1, 4)))
    rho0 = random_density(31, 16)
    steps = 10_000
    result = run(rho0, topology, family, Schedule.random(seed=8), steps, validate=True)
    assert len(result.records) == steps
    s0 = float(2.0 * (4 - excitation_counts(4)) @ np.real(np.diag(rho0)))
    assert max(abs(r.s_expectation - s0) for r in result.records) <= 1e-9
    # The validated run's final state is the bare composition of the channel
    # maps on the same neighborhood sequence: nothing rescales or projects it.
    channels = build_channels(family, topology)
    rho = rho0
    for idx in np.random.default_rng(8).choice(len(channels), size=steps, p=np.full(len(channels), 0.25)):
        rho = apply_channel(channels[idx], rho, validate=False)
    assert np.array_equal(result.final_state, rho)
