"""The benchmark's workloads: inputs from the seed, one op, and its checks.

Every workload is a closed loop: one caller issues each op after the previous
one returns, cycling through a fixed list of op kinds.  Inputs come from the
workload seed alone and are handed to the program's public API.  Each op's
output is checked; `check` returns the list of failures (empty when correct).

References are the program's outputs for REFERENCE_SEED, recorded by
`record_refs.py`.  On other seeds only the invariant checks and the
repeat-identity checks run: an op repeated on the same input must give the
identical output.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np

REFERENCE_SEED = 0

# Sizes of the measured workloads, and toy sizes for the harness self-test.
FULL = {
    "traj_m9": dict(m=9, steps=8, pool=6),
    "mc_m6": dict(m=6, horizon=100, trials=20, gamma=0.05, pool=8),
    "cli_session": dict(
        run_m=7, run_smc_steps=200, run_gossip_steps=150,
        compare_m=6, compare_steps=100,
        prepare_m=6, prepare_steps=400,
        convergence_m=5, convergence_horizon=60, convergence_trials=20, convergence_gamma=0.05,
        verify_m=6,
    ),
}
TOY = {
    "traj_m9": dict(m=4, steps=6, pool=6),
    "mc_m6": dict(m=4, horizon=20, trials=6, gamma=0.05, pool=4),
    "cli_session": dict(
        run_m=4, run_smc_steps=30, run_gossip_steps=300,
        compare_m=3, compare_steps=20,
        prepare_m=4, prepare_steps=200,
        convergence_m=3, convergence_horizon=20, convergence_trials=6, convergence_gamma=0.05,
        verify_m=3,
    ),
}

CONSERVATION_ATOL = 1e-9
TRACE_ATOL = 1e-9
MONOTONE_ATOL = 1e-12
REFERENCE_ATOL = 1e-9
GAMMA_MARGIN = 1e-6
FIDELITY_FLOOR = 1.0 - 1e-9


def input_seeds(tag: int, seed: int, n: int) -> list[int]:
    """n integer seeds for the program, derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence([seed, tag]).generate_state(n)]


def path_edges(m: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i + 1) for i in range(1, m))


def ring_edges(m: int) -> tuple[tuple[int, int], ...]:
    return path_edges(m) + ((1, m),) if m > 2 else path_edges(m)


def s_diagonal(m: int) -> np.ndarray:
    """Diagonal of the conserved observable m*I + sum sigma_z: 2*(m - popcount)."""
    ones = np.array([bin(n).count("1") for n in range(1 << m)])
    return 2.0 * (m - ones)


def load_refs(path: Path, name: str, seed: int):
    """The recorded references of one workload, or None for another seed."""
    with open(path, "r", encoding="utf-8") as fh:
        refs = json.load(fh)
    if refs["seed"] != seed:
        return None
    return refs["workloads"][name]


class Trajectory:
    """traj_m9: one `simulator.run` on a path graph, 8 cyclic steps, validate on.

    The family rotates gossip(0.5) -> ssc -> smc; starts are seeded
    `random_density` states, one per entry of a small pool.
    """

    tag = 1

    def __init__(self, mods, seed, params, refs, seen, work_dir):
        self.mods, self.refs, self.seen = mods, refs, seen
        self.m, self.n_steps, self.pool = params["m"], params["steps"], params["pool"]
        sim, dyn = mods.simulator, mods.dynamics
        self.topology = mods.network.NetworkTopology(m=self.m, neighborhoods=path_edges(self.m))
        self.families = (dyn.ChannelFamily.gossip(0.5), dyn.ChannelFamily.ssc(), dyn.ChannelFamily.smc())
        self.cycle = len(self.families)
        self.schedule = sim.Schedule.cyclic()
        self.starts = [sim.random_density(s, 1 << self.m) for s in input_seeds(self.tag, seed, self.pool)]
        s_diag = s_diagonal(self.m)
        self.s0 = [float(s_diag @ np.real(np.diag(rho))) for rho in self.starts]
        self.v0 = [self._initial_lyapunov(j, rho) for j, rho in enumerate(self.starts)]

    def _family(self, j):
        return self.families[j % self.cycle]

    def _initial_lyapunov(self, j, rho):
        kind = self._family(j).kind
        if kind == "ssc":
            return self.mods.symmetry.v_total(rho, self.m)
        if kind == "smc":
            return self.mods.symmetry.v_smc(rho, self.m)
        return self.mods.qcore.purity(rho)

    def op(self, i):
        j = i % self.pool
        return self.mods.simulator.run(
            self.starts[j], self.topology, self._family(j), self.schedule, self.n_steps, validate=True
        )

    def steps(self, i, out) -> int:
        return len(out.records)

    def check(self, i, out) -> list[str]:
        j = i % self.pool
        kind = self._family(j).kind
        errors = []
        if len(out.records) != self.n_steps:
            errors.append(f"{len(out.records)} records, expected {self.n_steps}")
        trace = complex(np.trace(out.final_state))
        if abs(trace - 1.0) > TRACE_ATOL:
            errors.append(f"final trace {trace:.15g}")
        drift = max(abs(r.s_expectation - self.s0[j]) for r in out.records)
        if drift > CONSERVATION_ATOL:
            errors.append(f"s_expectation drifts by {drift:.3e}")
        field = {"ssc": "v_total", "smc": "v_smc", "gossip": "purity"}[kind]
        values = [self.v0[j]] + [getattr(r, field) for r in out.records]
        rise = max(b - a for a, b in zip(values, values[1:]))
        if rise > MONOTONE_ATOL:
            errors.append(f"{field} rises by {rise:.3e} under {kind}")
        last = out.records[-1]
        final = {"v_total": last.v_total, "v_smc": last.v_smc, "purity": last.purity}
        if self.refs is not None:
            ref = self.refs["entries"][j]
            for key, value in final.items():
                if abs(value - ref[key]) > REFERENCE_ATOL:
                    errors.append(f"final {key} {value!r} != reference {ref[key]!r}")
        records = tuple(tuple(vars(r).values()) for r in out.records)  # the record class changes on re-import
        if self.seen.setdefault(j, records) != records:
            errors.append(f"records differ from an earlier run of input {j}")
        return [f"op {i} ({kind}, input {j}): {e}" for e in errors]

    def reference(self, i, out):
        last = out.records[-1]
        return {"family": self._family(i).kind, "v_total": last.v_total, "v_smc": last.v_smc, "purity": last.purity}


class MonteCarlo:
    """mc_m6: one `simulator.convergence_probability` on a path graph.

    The family alternates ssc -> smc; each pool entry has its own seeded
    dense start and Monte-Carlo seed.
    """

    tag = 2

    def __init__(self, mods, seed, params, refs, seen, work_dir):
        self.mods, self.refs, self.seen = mods, refs, seen
        self.m, self.pool = params["m"], params["pool"]
        self.horizon, self.trials, self.gamma = params["horizon"], params["trials"], params["gamma"]
        sim, dyn = mods.simulator, mods.dynamics
        self.topology = mods.network.NetworkTopology(m=self.m, neighborhoods=path_edges(self.m))
        self.families = (dyn.ChannelFamily.ssc(), dyn.ChannelFamily.smc())
        self.cycle = len(self.families)
        seeds = input_seeds(self.tag, seed, 2 * self.pool)
        self.starts = [sim.random_density(s, 1 << self.m) for s in seeds[: self.pool]]
        self.mc_seeds = seeds[self.pool:]

    def op(self, i):
        j = i % self.pool
        return self.mods.simulator.convergence_probability(
            self.starts[j], self.topology, self.families[j % self.cycle],
            self.gamma, self.horizon, self.trials, self.mc_seeds[j],
        )

    def steps(self, i, out) -> int:
        return self.trials * self.horizon

    def check(self, i, out) -> list[str]:
        j = i % self.pool
        errors = []
        hits = out * self.trials
        if not 0.0 <= out <= 1.0 or abs(hits - round(hits)) > 1e-9:
            errors.append(f"estimate {out!r} is not a hit count over {self.trials} trials")
        if self.refs is not None:
            ref = self.refs["entries"][j]
            if out != ref["estimate"]:
                errors.append(f"estimate {out!r} != reference {ref['estimate']!r}")
            close = [g for g in ref["gaps"] if abs(g - self.gamma) <= GAMMA_MARGIN * self.gamma]
            if close:
                errors.append(f"reference trial gaps {close} lie within {GAMMA_MARGIN} of gamma")
        if self.seen.setdefault(j, out) != out:
            errors.append(f"estimate differs from an earlier run of input {j}")
        return [f"op {i} ({self.families[j % self.cycle].kind}, input {j}): {e}" for e in errors]

    def reference(self, i, out):
        """The estimate and every trial's final gap, replayed trial by trial.

        Trial t uses the stream SeedSequence(seed).spawn(trials)[t], as
        `convergence_probability` documents; the replay must give the same
        estimate, or no reference is recorded.
        """
        sim = self.mods.simulator
        family = self.families[i % self.cycle]
        gaps = []
        for child in np.random.SeedSequence(self.mc_seeds[i]).spawn(self.trials):
            schedule = sim.Schedule.random(seed=int(child.generate_state(1)[0]))
            result = sim.run(self.starts[i], self.topology, family, schedule, self.horizon, validate=False)
            gaps.append(sim.lyapunov_gap(family, result.final_state, self.m))
        replayed = sum(g < self.gamma for g in gaps) / self.trials
        if replayed != out:
            raise RuntimeError(f"trial replay gives {replayed}, convergence_probability gave {out}")
        return {"family": family.kind, "estimate": out, "gaps": gaps}


_FIDELITY = re.compile(r"final fidelity with target Dicke state \(k=\d+\): (\S+)")
_ESTIMATE = re.compile(r"\] ~= (\S+) \(")


class CliSession:
    """cli_session: one in-process `qconsensus.cli.main(argv)` command per op.

    Six commands in a fixed order, each with a generated config.  Configs are
    written as JSON, which the CLI's YAML parser reads, so the benchmark does
    not import the YAML library before the program does.
    """

    tag = 3

    def __init__(self, mods, seed, params, refs, seen, work_dir):
        self.mods, self.refs, self.seen = mods, refs, seen
        p = self.p = params
        self.out_dir = Path(work_dir) / "out"
        config_dir = Path(work_dir) / "configs"
        config_dir.mkdir(parents=True, exist_ok=True)
        s = input_seeds(self.tag, seed, 8)
        configs = {
            "run_smc": dict(
                topology=dict(m=p["run_m"], edges=ring_edges(p["run_m"])), family=dict(kind="smc"),
                schedule=dict(mode="cyclic"), steps=p["run_smc_steps"],
                initial_state=dict(kind="random", seed=s[0]), seed=s[1], output="run_smc.csv",
            ),
            "run_gossip": dict(
                topology=dict(m=p["run_m"], edges=ring_edges(p["run_m"])), family=dict(kind="gossip", alpha=0.3),
                schedule=dict(mode="random", seed=s[2]), steps=p["run_gossip_steps"],
                initial_state=dict(kind="random", seed=s[3]), seed=s[1], output="run_gossip.csv",
            ),
            "compare": dict(
                topology=dict(m=p["compare_m"], edges=path_edges(p["compare_m"])), family=dict(kind="gossip", alpha=0.5),
                schedule=dict(mode="cyclic"), steps=p["compare_steps"],
                initial_state=dict(kind="random", seed=s[4]), seed=s[1], output="compare.csv",
            ),
            "prepare": dict(
                topology=dict(m=p["prepare_m"], edges=ring_edges(p["prepare_m"])),
                initial_state=dict(kind="random", seed=s[5]), seed=s[6], output="prepare.csv",
                prepare=dict(target_k=1, use_s_measurement=True, steps=p["prepare_steps"]),
            ),
            "convergence": dict(
                topology=dict(m=p["convergence_m"], edges=path_edges(p["convergence_m"])), family=dict(kind="smc"),
                initial_state=dict(kind="random", seed=s[7]), seed=s[1],
                convergence=dict(
                    gamma=p["convergence_gamma"], horizon=p["convergence_horizon"], trials=p["convergence_trials"]
                ),
            ),
        }
        for key, cfg in configs.items():
            (config_dir / f"{key}.yaml").write_text(json.dumps(cfg), encoding="utf-8")

        def config_command(command, key, *flags):
            return [command, "--config", str(config_dir / f"{key}.yaml"), "--output-dir", str(self.out_dir), *flags]

        # (key, argv, CSV files written)
        self.commands = (
            ("run_smc", config_command("run", "run_smc", "--early-stop"), ("run_smc.csv",)),
            ("run_gossip", config_command("run", "run_gossip", "--early-stop"), ("run_gossip.csv",)),
            ("compare", config_command("compare", "compare"),
             ("compare_gossip.csv", "compare_ssc.csv", "compare_smc.csv")),
            ("prepare", config_command("prepare", "prepare"), ("prepare.csv",)),
            ("convergence", config_command("convergence", "convergence"), ()),
            ("verify", ["verify", "--family", "smc", "--m", str(p["verify_m"])], ()),
        )
        self.cycle = self.pool = len(self.commands)

    def op(self, i):
        _, argv, csvs = self.commands[i % self.cycle]
        for name in csvs:
            (self.out_dir / name).unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.mods.cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def _csvs(self, k):
        return {name: (self.out_dir / name).read_bytes() for name in self.commands[k][2]}

    def steps(self, i, out) -> int:
        """Trajectory steps the command reports: CSV rows, or trials x horizon."""
        k = i % self.cycle
        if self.commands[k][0] == "convergence":
            return self.p["convergence_trials"] * self.p["convergence_horizon"]
        if out[0] != 0:
            return 0
        return sum(data.count(b"\n") - 1 for data in self._csvs(k).values())

    def check(self, i, out) -> list[str]:
        k = i % self.cycle
        key = self.commands[k][0]
        code, stdout, stderr = out
        if code != 0:
            return [f"op {i} ({key}): exit code {code}: {stderr.strip()}"]
        errors = []
        try:
            csvs = self._csvs(k)
        except OSError as exc:
            return [f"op {i} ({key}): {exc}"]
        ref = self.refs["entries"][k] if self.refs is not None else None
        for name, data in csvs.items():
            rows = [line.split(",") for line in data.decode().splitlines()]
            s_col = rows[0].index("s_expectation")
            s_values = [float(row[s_col]) for row in rows[1:]]
            drift = max(abs(v - s_values[0]) for v in s_values)
            if drift > CONSERVATION_ATOL:
                errors.append(f"{name}: s_expectation drifts by {drift:.3e}")
            if ref is not None:
                errors += [f"{name}: {e}" for e in _csv_mismatch(rows, ref["csv"][name])]
        if self.seen.setdefault(k, csvs) != csvs:
            errors.append("CSV bytes differ from an earlier run of the same command")
        if key == "prepare":
            found = _FIDELITY.search(stdout)
            if found is None or float(found.group(1)) < FIDELITY_FLOOR:
                errors.append(f"fidelity {found and found.group(1)} below {FIDELITY_FLOOR!r}")
        if key == "verify" and "overall: PASS" not in stdout:
            errors.append("verify did not print 'overall: PASS'")
        if key == "convergence":
            found = _ESTIMATE.search(stdout)
            if found is None:
                errors.append("no estimate printed")
            elif ref is not None and found.group(1) != ref["estimate"]:
                errors.append(f"estimate {found.group(1)} != reference {ref['estimate']}")
        return [f"op {i} ({key}): {e}" for e in errors]

    def reference(self, i, out):
        found = _ESTIMATE.search(out[1])
        return {
            "command": self.commands[i][0],
            "csv": {name: data.decode() for name, data in self._csvs(i).items()},
            "estimate": found.group(1) if found else None,
        }


def _csv_mismatch(rows, ref_text) -> list[str]:
    ref_rows = [line.split(",") for line in ref_text.splitlines()]
    if rows[0] != ref_rows[0] or len(rows) != len(ref_rows):
        return [f"shape {len(rows)}x{rows[0]} != reference {len(ref_rows)}x{ref_rows[0]}"]
    worst = max(
        (abs(float(a) - float(b)) for row, ref in zip(rows[1:], ref_rows[1:]) for a, b in zip(row, ref)),
        default=0.0,
    )
    return [f"differs from the reference by {worst:.3e}"] if worst > REFERENCE_ATOL else []


WORKLOADS = {"traj_m9": Trajectory, "mc_m6": MonteCarlo, "cli_session": CliSession}
