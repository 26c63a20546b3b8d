"""A run from a start without coherence between excitation sectors evolves only its C(2m, m) zero-coherence entries.

`simulator.run` can take the sector layout (`simulator._Sectors`) when every
entry (r, c) of its start with |r| != |c| is 0, and does when
`simulator._sectors_pay` says the layout pays for its gather tables.  These
tests check that rule and which starts take the layout, cross-check it
against the dense layout (`simulator._Dense`) with the rule forced either
way, and check its failures and its gather tables.
"""

import threading
from itertools import combinations
from math import comb

import numpy as np
import pytest

from qconsensus import simulator
from qconsensus.dynamics import ChannelFamily, build_channels
from qconsensus.network import NetworkTopology
from qconsensus.qcore import PSD_ATOL, _Anchor, _gather_step, _gather_tables, bitstring_ket, ket_to_density, validate_density_matrix
from qconsensus.simulator import Schedule, measure_global_observable, prepare_dicke, random_density, run
from qconsensus.symmetry import _readout, _sector_readout, dicke_ket, excitation_counts

FAMILIES = {"gossip": ChannelFamily.gossip(0.3), "ssc": ChannelFamily.ssc(), "smc": ChannelFamily.smc()}


def graph(m, name):
    path = tuple((i, i + 1) for i in range(1, m))
    ring = path + (((1, m),) if m > 2 else ())
    edges = {"path": path, "ring": ring, "complete": tuple(combinations(range(1, m + 1), 2))}[name]
    return NetworkTopology(m=m, neighborhoods=edges)


def block_diagonal(m, seed, min_eig=None):
    """A random complex density matrix without coherence between excitation sectors.

    min_eig, when set, replaces the least eigenvalue of the k = m // 2 block;
    the block's largest eigenvalue takes up the difference, so the trace stays 1.
    """
    rng = np.random.default_rng(seed)
    counts, rho = excitation_counts(m), np.zeros((1 << m, 1 << m), complex)
    for k in range(m + 1):
        idx = np.flatnonzero(counts == k)
        g = rng.standard_normal((len(idx), len(idx))) + 1j * rng.standard_normal((len(idx), len(idx)))
        rho[np.ix_(idx, idx)] = g @ g.conj().T
    rho /= np.trace(rho).real
    if min_eig is not None:
        idx = np.ix_(*[np.flatnonzero(counts == m // 2)] * 2)
        eigs, q = np.linalg.eigh(rho[idx])
        eigs[-1] += eigs[0] - min_eig
        eigs[0] = min_eig
        rho[idx] = (q * eigs) @ q.conj().T
    return 0.5 * (rho + rho.conj().T)


def corners(m):
    """(|0..0><0..0| + |1..1><1..1|) / 2: a fixed point of all three families, so an early-stop run stops at step 2m."""
    return 0.5 * (ket_to_density(bitstring_ket("0" * m)) + ket_to_density(bitstring_ket("1" * m)))


@pytest.fixture
def layouts(monkeypatch):
    """The state class of each state run builds (simulator._layout's choice), in call order."""
    chosen, layout = [], simulator._layout

    def spying_layout(*args):
        state = layout(*args)
        return lambda: chosen.append(type(made := state()).__name__) or made

    monkeypatch.setattr(simulator, "_layout", spying_layout)
    return chosen


@pytest.fixture
def sectors(monkeypatch):
    """Every zero-coherence start takes the sector layout, however few its steps or large its state."""
    monkeypatch.setattr(simulator, "_sectors_pay", lambda *args: True)


def dense_run(*args, **kwargs):
    """run(*args, **kwargs) on the dense layout, whatever the start."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "_sectors_pay", lambda *args: False)
        return run(*args, **kwargs)


def assert_close(got, want):
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        fields = ("purity", "s_expectation", "v_total", "v_smc", "smc_population")
        values = [[getattr(r, f) for f in fields] + list(r.dicke_populations) for r in (a, b)]
        assert a.step == b.step and np.max(np.abs(np.subtract(*values))) <= 1e-12
        assert (a.psd_debt is None) == (b.psd_debt is None)
        assert a.psd_debt is None or abs(a.psd_debt - b.psd_debt) <= 1e-12
    assert np.max(np.abs(got.final_state - want.final_state)) <= 1e-12


@pytest.mark.parametrize("name", ["path", "ring", "complete"])
@pytest.mark.parametrize("kind", sorted(FAMILIES))
@pytest.mark.parametrize("m", range(2, 8))
def test_sector_run_matches_the_dense_run(layouts, sectors, m, kind, name):
    topology, runs = graph(m, name), 0
    for start in ("blocks", "corners"):
        rho = block_diagonal(m, 10 * m) if start == "blocks" else corners(m)
        for schedule in (Schedule.cyclic(), Schedule.random(seed=m)):
            for validate in (True, False):
                for early_stop in (False, True):
                    args = (rho, topology, FAMILIES[kind], schedule, 2 * m + 6)
                    sectors = run(*args, validate=validate, early_stop=early_stop)
                    assert_close(sectors, dense_run(*args, validate=validate, early_stop=early_stop))
                    if start == "corners":
                        assert len(sectors.records) == (2 * m if early_stop else 2 * m + 6)
                    runs += 1
    assert layouts == ["_Sectors", "_Dense"] * runs


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_threaded_sector_run_matches_the_inline_run_bit_for_bit(monkeypatch, layouts, sectors, kind):
    # At m = 8 a validated run steps on a worker thread when it has a spare core, forced here.
    monkeypatch.setattr(simulator, "_spare_core", lambda: True)
    threads, step = [], simulator._gather_step
    monkeypatch.setattr(simulator, "_gather_step", lambda *args: threads.append(threading.get_ident()) or step(*args))
    args = (block_diagonal(8, 3), graph(8, "ring"), FAMILIES[kind], Schedule.random(seed=4), 20)
    threaded = run(*args)
    assert threads[0] != threading.get_ident()
    monkeypatch.setattr(simulator, "OVERLAP_MIN_DIM", 512)
    threads.clear()
    plain = run(*args)
    assert set(threads) == {threading.get_ident()}
    assert threaded.records == plain.records
    assert threaded.final_state.tobytes() == plain.final_state.tobytes()
    assert layouts == ["_Sectors"] * 2


def test_the_papers_starts_take_the_sector_layout(layouts, sectors):
    # Basis strings, Dicke states and their mixtures, every output of the
    # global measurement, and every stage-2 start of prepare_dicke.
    m = 5
    topology = graph(m, "ring")
    starts = [ket_to_density(bitstring_ket(bits)) for bits in ("00000", "10110", "11111")]
    starts += [ket_to_density(dicke_ket(m, k)) for k in range(m + 1)]
    starts.append(0.25 * starts[1] + 0.75 * starts[5])
    rng = np.random.default_rng(7)
    starts += [measure_global_observable(random_density(seed, 1 << m), m, rng)[1] for seed in range(3)]
    for rho in starts:
        run(rho, topology, ChannelFamily.ssc(), Schedule.cyclic(), 2)
    assert layouts == ["_Sectors"] * len(starts)
    layouts.clear()
    for seed, use_s_measurement in enumerate((True, False, True)):
        rho0 = random_density(11 + seed, 1 << m)
        prepare_dicke(rho0, 2, topology, np.random.default_rng(seed), use_s_measurement=use_s_measurement, steps=5)
    assert layouts == ["_Sectors"] * 3


@pytest.mark.parametrize("entry", [(0, 1), (1, 3), (5, 30)], ids=["row-0", "row-1", "row-5"])
def test_a_single_tiny_coherence_between_sectors_takes_the_dense_layout(layouts, sectors, entry):
    m = 5
    assert excitation_counts(m)[entry[0]] != excitation_counts(m)[entry[1]]
    rho = ket_to_density(dicke_ket(m, 1))
    rho[entry] = rho[entry[::-1]] = 1e-300
    run(rho, graph(m, "ring"), ChannelFamily.ssc(), Schedule.cyclic(), 2)
    run(random_density(4, 1 << m), graph(m, "ring"), ChannelFamily.ssc(), Schedule.cyclic(), 2)
    assert layouts == ["_Dense"] * 2


def faulty_sector_step(m, sites, factor=3.0):
    """A sector step that multiplies the off-diagonal zero-coherence entries by factor on one edge.

    Trace and Hermiticity hold, so the per-step checks pass it; positivity
    breaks, which the next anchor catches.
    """
    off, sector_step = np.setdiff1d(np.arange(len(_readout(m, 1 << m).sectors)), _sector_readout(m).diag), simulator._Sectors.step

    def step(state, channel):
        sector_step(state, channel)
        if channel.sites == sites:
            state.x[off] *= factor

    return step


@pytest.mark.parametrize("anchors", ["last-step", "every-step"])
@pytest.mark.parametrize("kind", ["gossip", "ssc"])
def test_a_faulty_sector_step_fails_at_the_next_anchor_with_step_edge_and_window(monkeypatch, layouts, sectors, kind, anchors):
    # The Dicke state is a fixed point of gossip and ssc; the faulty step on
    # edge (2, 3) comes last and leaves its block with eigenvalue -1/3.
    m = 4
    monkeypatch.setattr(simulator._Sectors, "step", faulty_sector_step(m, (2, 3)))
    if anchors == "every-step":
        monkeypatch.setattr(simulator, "PSD_DEBT_BUDGET", 0.0)
    with pytest.raises(ValueError) as err:
        run(ket_to_density(dicke_ket(m, 2)), graph(m, "path"), FAMILIES[kind], Schedule.cyclic((0, 2, 1)), 3)
    window = "steps 1..3)" if anchors == "last-step" else "steps 3..3)"
    assert str(err.value).startswith(f"{kind} run, step 3 on edge (2, 3): not positive semidefinite: min eigenvalue -3.333e-01")
    assert str(err.value).endswith(f"(last passing anchor at step {0 if anchors == 'last-step' else 2}; the fault lies in {window}")
    assert layouts == ["_Sectors"]


def test_a_faulty_sector_step_on_the_worker_fails_at_the_callers_anchor(monkeypatch, layouts, sectors):
    monkeypatch.setattr(simulator, "_spare_core", lambda: True)
    m, threads, factorizations, cholesky = 8, [], [], _Anchor.cholesky
    step = faulty_sector_step(m, (2, 3))
    monkeypatch.setattr(simulator._Sectors, "step", lambda *args: threads.append(threading.get_ident()) or step(*args))
    monkeypatch.setattr(_Anchor, "cholesky", lambda self: factorizations.append(threading.get_ident()) or cholesky(self))
    args = (ket_to_density(dicke_ket(m, 4)), graph(m, "path"), ChannelFamily.ssc(), Schedule.cyclic((0, 2, 3, 4, 5, 6, 1)), 7)
    messages = []
    for path in ("threaded", "inline"):
        if path == "inline":
            monkeypatch.setattr(simulator, "OVERLAP_MIN_DIM", 512)
        threads.clear()
        with pytest.raises(ValueError) as err:
            run(*args)
        assert len(threads) == 7 and (threading.get_ident() not in threads) == (path == "threaded")
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("ssc run, step 7 on edge (2, 3): not positive semidefinite: min eigenvalue -")
    assert messages[0].endswith("(last passing anchor at step 0; the fault lies in steps 1..7)")
    assert set(factorizations) == {threading.get_ident()}  # the last anchor of each run, on the caller's thread
    assert layouts == ["_Sectors"] * 2


@pytest.mark.parametrize("m", [4, 8])
def test_a_block_diagonal_start_with_a_negative_eigenvalue_is_rejected_like_the_dense_one(monkeypatch, layouts, sectors, m):
    # At m = 8 the input's factorization runs on the caller while a worker would step.
    monkeypatch.setattr(simulator, "_spare_core", lambda: True)
    args = (graph(m, "ring"), ChannelFamily.ssc(), Schedule.cyclic(), 3)
    run(block_diagonal(m, 5, min_eig=0.5 / (1 << m)), *args)
    assert layouts == ["_Sectors"]
    bad = block_diagonal(m, 5, min_eig=-2 * PSD_ATOL)
    messages = []
    for check in (validate_density_matrix, lambda rho: run(rho, *args), lambda rho: dense_run(rho, *args)):
        with pytest.raises(ValueError) as err:
            check(bad)
        messages.append(str(err.value))
    assert messages == ["not positive semidefinite: min eigenvalue -2.000e-09"] * 3


def mask_gather_tables(channels, reads):
    """The closure and gathers as built by a boolean mask over the d^2 entries: kept ascending, inputs found by searchsorted."""
    m = channels[0].m
    mask = np.zeros(1 << (2 * m), dtype=bool)
    mask[reads] = True
    while True:
        kept, tables = np.flatnonzero(mask), []
        for ch in channels:
            shifts = np.array([2 * m - s for s in ch.sites] + [m - s for s in ch.sites])
            place = 1 << np.arange(len(shifts) - 1, -1, -1)
            loc = ((kept[:, None] >> shifts) & 1) @ place
            offsets = ((np.arange(len(ch.superop))[:, None] & place) > 0) @ (1 << shifts)
            nonzero = ch.superop != 0
            cols = np.argsort(~nonzero, axis=1, kind="stable")[loc, : nonzero.sum(1)[loc].max()]
            coef, inputs = ch.superop[loc[:, None], cols], (kept - offsets[loc])[:, None] + offsets[cols]
            mask[inputs[coef != 0]] = True
            inputs[coef == 0] = kept[0]
            tables.append((np.searchsorted(kept, inputs.T), coef.T.copy()))
        if np.count_nonzero(mask) == len(kept):
            return kept, tables


@pytest.mark.parametrize("name", ["path", "complete"])
@pytest.mark.parametrize("m", range(2, 8))
def test_gather_tables_equal_the_mask_closure_and_keep_the_trials_bit_identical(m, name):
    topology, d = graph(m, name), 1 << m
    for kind, family in FAMILIES.items():
        channels = build_channels(family, topology)
        sectors = _readout(m, d).sectors
        kept, tables = _gather_tables(channels, sectors)
        assert np.array_equal(kept, sectors)  # the zero-coherence class is closed, in sector order
        for idx, coef in tables:
            assert idx.dtype == np.intp and idx.flags.c_contiguous and coef.flags.c_contiguous
        if kind == "gossip":
            continue
        kept, tables, w = simulator._gap_gather(family, channels, m)
        reads = np.sort(sectors) if kind == "ssc" else np.array([0, d * d - 1])
        want_kept, want_tables = mask_gather_tables(channels, reads)
        assert np.array_equal(kept, want_kept)
        if kind == "ssc":  # each Dicke-sector entry weighs 1 / C(m, k)
            assert w.tobytes() == (1.0 / np.vectorize(comb)(m, excitation_counts(m)[kept // d])).tobytes()
        else:  # the P_smc corners weigh 1
            assert w.tobytes() == np.isin(kept, [0, d * d - 1]).astype(float).tobytes()
        for (idx, coef), (want_idx, want_coef) in zip(tables, want_tables):
            assert coef.tobytes() == want_coef.tobytes() and np.array_equal(idx[coef != 0], want_idx[coef != 0])
        rho = random_density(m, d)
        for seed in range(3):
            picks = simulator._random_picks(topology, seed, 60)
            gaps, buf, out = [], np.empty((3, len(kept))), np.empty(len(kept))
            for gather in (tables, want_tables):
                v = rho.real.reshape(-1)[kept]
                for i in picks:
                    v = np.add.reduce(gather[i][1] * v[gather[i][0]])
                gaps.append(1.0 - w @ v)
            v = rho.real.reshape(-1)[kept]
            for i in picks:  # convergence_probability's trial step, in its buffers
                v, out = _gather_step(v, tables[i], buf, out), v
            gaps.append(1.0 - w @ v)
            assert gaps[0] == gaps[1] == gaps[2]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("k", [2, 3])
def test_a_gather_step_equals_the_reduce_of_its_products_bit_for_bit(k, dtype):
    rng, n = np.random.default_rng(k), 924
    v = rng.standard_normal(n).astype(dtype)
    if dtype is complex:
        v += 1j * rng.standard_normal(n)
    table = rng.integers(n, size=(k, n)).astype(np.intp), rng.standard_normal((k, n))
    buf, out = np.empty((3, n), dtype), np.empty(n, dtype)
    assert _gather_step(v, table, buf, out) is out
    assert out.tobytes() == np.add.reduce(table[1] * v[table[0]]).tobytes()


@pytest.mark.parametrize("m", [4, 6])
def test_a_run_takes_the_sector_layout_only_with_enough_steps_per_table(layouts, m):
    # A ring needs m tables; 20 steps make 3 to 5 per table, 200 make 33 to
    # 50, and m = 4 needs 64, m = 6 16 (see _sectors_pay).
    topology, rho = graph(m, "ring"), ket_to_density(bitstring_ket(("01" * m)[:m]))
    least = simulator.SECTOR_TABLE_WORK * m >> m
    for steps in (20, 200, least - 1, least):
        run(rho, topology, ChannelFamily.ssc(), Schedule.cyclic(), steps)
    assert layouts == ["_Dense", "_Dense" if m == 4 else "_Sectors", "_Dense", "_Sectors"]


def test_gather_tables_are_built_once_for_the_channels_the_schedule_picks(monkeypatch, layouts, sectors):
    # The input's factorization fails, so the run starts again from eigvalsh's debt, with the same tables.
    monkeypatch.setattr(simulator, "_spare_core", lambda: True)
    monkeypatch.setattr(_Anchor, "cholesky", lambda self: False)
    built, gather_tables = [], simulator._gather_tables
    monkeypatch.setattr(simulator, "_gather_tables", lambda channels, reads: built.append([ch.sites for ch in channels]) or gather_tables(channels, reads))
    m, order = 8, (0, 2, 4, 6, 1, 3, 5, 7)
    args = (ket_to_density(dicke_ket(m, 3)), graph(m, "ring"), ChannelFamily.ssc(), Schedule.cyclic(order), 3)
    rerun = run(*args)
    assert built == [[(1, 2), (3, 4), (5, 6)]]
    assert layouts == ["_Sectors"] * 2
    assert_close(rerun, dense_run(*args))


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_from_the_overlap_size_on_the_gather_tables_outgrow_the_dense_buffers(monkeypatch, layouts, kind):
    # The smallest connected graph at m = 8 already needs more table bytes
    # than all of _Dense's buffers (two real step buffers and the complex
    # one for rho), so those starts stay dense, however
    # many steps they make; at m = 10 the complete graph's 45 tables would
    # take about 15 dense states, and none is built.
    m, d = 8, 1 << 8
    assert d == simulator.OVERLAP_MIN_DIM
    channels = build_channels(FAMILIES[kind], graph(m, "path"))
    _, tables = _gather_tables(channels, _readout(m, d).sectors)
    assert sum(idx.nbytes + coef.nbytes for idx, coef in tables) > 2 * 16 * d * d
    monkeypatch.setattr(simulator, "_gather_tables", lambda *args: pytest.fail("a table was built"))
    for m, name in ((8, "path"), (10, "complete")):
        rho = ket_to_density(bitstring_ket(("01" * m)[:m]))
        topology = graph(m, name)
        picks = simulator._picks(Schedule.cyclic(), topology, 100 * len(topology.neighborhoods))
        state = simulator._layout(rho, m, build_channels(FAMILIES[kind], topology), picks)()
        assert state.front.nbytes == state.out.nbytes == rho.real.nbytes and state.rho.nbytes == rho.nbytes
    assert layouts == ["_Dense"] * 2
