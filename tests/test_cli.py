import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qconsensus import cli
from qconsensus.cli import _wilson_interval, main
from qconsensus.dynamics import ChannelFamily
from qconsensus.network import InputError, NetworkTopology
from qconsensus.qcore import ket_to_density, load_matrix, save_matrix
from qconsensus.simulator import Schedule, random_density, run
from qconsensus.symmetry import dicke_ket, is_smc, is_ssc

BASE_CONFIG = """\
topology:
  m: 3
  edges: [[1, 2], [2, 3]]
family:
  kind: {kind}
schedule:
  mode: cyclic
  order: [0, 1]
steps: {steps}
initial_state:
  kind: random
  seed: 42
seed: 123
output: {output}
"""


def write_config(tmp_path, name="cfg.yaml", kind="ssc", steps=50, output="traj.csv", extra=""):
    path = tmp_path / name
    path.write_text(BASE_CONFIG.format(kind=kind, steps=steps, output=output) + extra)
    return str(path)


def test_run_writes_csv_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, steps=40)
    code = main(["run", "--config", cfg, "--output-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "final purity" in out
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert len(lines) == 41
    assert lines[0].startswith("step,purity,s_expectation")
    assert all(len(line.split(",")) == 10 for line in lines)


def test_run_summary_prints_the_consensus_residuals_of_the_final_state(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        "topology:\n  m: 3\n  edges: [[1, 2], [2, 3]]\nfamily: {kind: ssc}\n"
        "schedule: {mode: cyclic, order: [0, 1]}\nsteps: 10\ninitial_state: {kind: dicke, k: 1}\n"
    )
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    topology = NetworkTopology(m=3, neighborhoods=((1, 2), (2, 3)))
    result = run(ket_to_density(dicke_ket(3, 1)), topology, ChannelFamily.ssc(), Schedule.cyclic((0, 1)), 10)
    _, ssc_residual = is_ssc(result.final_state, 3)
    _, population, pairwise = is_smc(result.final_state, 3)
    assert population == result.records[-1].smc_population
    assert f"ssc residual:         {ssc_residual:.3e}\n" in out
    assert f"smc population:       {population:.6g} (pairwise residual {pairwise:.3e})\n" in out
    # The W state is a fixed point of ssc: symmetric, with no weight on |000> or |111>.
    assert ssc_residual < 1e-12 and abs(population) < 1e-12
    assert f"final s_expectation:  {4.0:.6g}\n" in out


@pytest.mark.parametrize("when", ["after-one-line", "before-start"])
def test_closed_stdout_pipe_ends_without_a_traceback(when):
    # after-one-line: unbuffered output, the reader takes the first line and
    # closes the pipe while the family is certified, before the rows are
    # printed.  before-start: buffered output into a pipe nobody reads, so the
    # one write happens when the command flushes its output.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable, "-m", "qconsensus.cli", "verify", "--family", "smc", "--m", "3"]
    if when == "after-one-line":
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(b"verify: family=smc m=3")
        proc.stdout.close()
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        proc = subprocess.Popen(argv, stdout=write_end, stderr=subprocess.PIPE, env=env)
        os.close(write_end)
    err = proc.stderr.read().decode()
    code = proc.wait(timeout=60)
    proc.stderr.close()
    assert err == "", err
    # Exit 1 once a write met the closed pipe; after-one-line can only exit 0
    # if every row was written before the reader closed it.
    assert code == 1 or (when == "after-one-line" and code == 0)


def test_run_is_bit_identical_for_same_config(tmp_path):
    cfg = write_config(tmp_path, kind="smc", steps=60)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["run", "--config", cfg, "--output-dir", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--output-dir", str(out2)]) == 0
    assert (out1 / "traj.csv").read_bytes() == (out2 / "traj.csv").read_bytes()


def test_run_seed_override_changes_random_initial_state(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        "topology:\n  m: 3\n  edges: [[1, 2], [2, 3]]\n"
        "family: {kind: ssc}\nsteps: 5\n"
        "initial_state: {kind: random}\noutput: t.csv\n"
    )
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--seed", "1", "--output-dir", str(a_dir)]) == 0
    assert main(["run", "--config", str(cfg_path), "--seed", "2", "--output-dir", str(b_dir)]) == 0
    assert (a_dir / "t.csv").read_bytes() != (b_dir / "t.csv").read_bytes()


def test_run_rejects_malformed_edges(tmp_path, capsys):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(
        "topology:\n  m: 3\n  edges: [[1, 2, 3]]\nfamily: {kind: ssc}\n"
        "steps: 10\ninitial_state: {kind: dicke, k: 1}\n"
    )
    assert main(["run", "--config", cfg_path.as_posix()]) == 1
    assert "topology.edges[0]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text", ["topology: [1, 2\n", "steps: !!python/object/apply:os.getcwd []\n"], ids=["unclosed", "python-tag"]
)
def test_invalid_or_unsafe_yaml_is_a_config_error(tmp_path, capsys, text):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 1
    assert f"config error: invalid YAML in {cfg_path}" in capsys.readouterr().err


def test_run_rejects_zero_steps(tmp_path):
    cfg = write_config(tmp_path, steps=0)
    assert main(["run", "--config", cfg]) == 1


def test_run_rejects_missing_config(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 1


def test_run_with_matrix_file_initial_state(tmp_path):
    rho = random_density(5, 8)
    save_matrix(tmp_path / "rho.json", rho)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        "topology:\n  m: 3\n  edges: [[1, 2], [2, 3]]\n"
        "family: {kind: smc}\nsteps: 30\n"
        f"initial_state: {{kind: file, path: '{(tmp_path / 'rho.json').as_posix()}'}}\n"
        "output: t.csv\n"
    )
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 0


def test_compare_writes_three_csvs(tmp_path, capsys):
    cfg = write_config(tmp_path, steps=80, output="cmp.csv")
    assert main(["compare", "--config", cfg, "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    for kind in ("gossip", "ssc", "smc"):
        assert (tmp_path / f"cmp_{kind}.csv").exists()
        assert kind in out
    assert "final_purity" in out


def test_compare_gossip_fixes_symmetric_start(tmp_path, capsys):
    # Start from the pair-averaged state: gossip leaves purity constant.
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        "topology:\n  m: 2\n  edges: [[1, 2]]\n"
        "family: {kind: ssc}\nsteps: 40\n"
        "initial_state: {kind: dicke, k: 1}\n"
    )
    assert main(["compare", "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "compare_gossip.csv").read_text().splitlines()
    purities = [float(line.split(",")[1]) for line in lines[1:]]
    assert max(purities) - min(purities) < 1e-12


def test_prepare_reports_fidelity(tmp_path, capsys):
    cfg_path = tmp_path / "prep.yaml"
    cfg_path.write_text(
        "topology:\n  m: 3\n  edges: [[1, 2], [2, 3]]\n"
        "family: {kind: ssc}\nsteps: 10\n"
        "initial_state: {kind: random, seed: 3}\nseed: 11\n"
        "prepare: {target_k: 1, use_s_measurement: false, steps: 250}\n"
    )
    assert main(["prepare", "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "final fidelity" in out
    assert "measurement log" in out


def test_prepare_rejects_out_of_range_target(tmp_path):
    cfg_path = tmp_path / "prep.yaml"
    cfg_path.write_text(
        "topology:\n  m: 3\n  edges: [[1, 2], [2, 3]]\n"
        "family: {kind: ssc}\nsteps: 10\n"
        "initial_state: {kind: random, seed: 3}\n"
        "prepare: {target_k: 7}\n"
    )
    assert main(["prepare", "--config", str(cfg_path)]) == 1


@pytest.mark.parametrize("family", ["gossip", "ssc", "smc"])
def test_verify_families_pass(family, capsys):
    assert main(["verify", "--family", family, "--m", "3"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "FAIL" not in out.replace("overall: PASS", "")


def test_verify_gossip_reports_unitality(capsys):
    assert main(["verify", "--family", "gossip", "--m", "3"]) == 0
    assert "unitality" in capsys.readouterr().out


def test_verify_smc_reports_completeness(capsys):
    assert main(["verify", "--family", "smc", "--m", "2"]) == 0
    assert "cptp completeness" in capsys.readouterr().out


def test_verify_rejects_large_m():
    assert main(["verify", "--family", "ssc", "--m", "7"]) == 1


def test_verify_rejects_unknown_family():
    assert main(["verify", "--family", "bogus", "--m", "3"]) == 1


@pytest.mark.parametrize("family", ["ssc", "smc"])
def test_verify_takes_alpha_for_gossip_only(family, capsys):
    assert main(["verify", "--family", family, "--m", "3", "--alpha", "0.3"]) == 1
    assert "takes no alpha" in capsys.readouterr().err
    assert main(["verify", "--family", "gossip", "--m", "3"]) == 0


@pytest.mark.parametrize(
    "command, section",
    [("prepare", "prepare: {target_k: 1, steps: 5}"), ("convergence", "convergence: {gamma: 0.5, horizon: 0, trials: 2}")],
    ids=["prepare", "convergence"],
)
def test_early_stop_is_a_usage_error_where_it_is_not_read(tmp_path, command, section):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        "topology:\n  m: 3\n  edges: [[1, 2], [2, 3]]\nfamily: {kind: smc}\n"
        f"initial_state: {{kind: random, seed: 3}}\n{section}\n"
    )
    argv = [command, "--config", str(cfg_path), "--output-dir", str(tmp_path)]
    assert main(argv) == 0
    assert main([*argv, "--early-stop"]) == 1


def test_convergence_estimate(tmp_path, capsys):
    cfg_path = tmp_path / "conv.yaml"
    cfg_path.write_text(
        "topology:\n  m: 3\n  edges: [[1, 2], [2, 3]]\n"
        "family: {kind: smc}\nsteps: 1\n"
        "initial_state: {kind: random, seed: 3}\nseed: 5\n"
        "convergence: {gamma: 0.01, horizon: 120, trials: 30}\n"
    )
    assert main(["convergence", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "P[lyapunov gap < 0.01" in out


def test_wilson_interval_values():
    # 50 of 100: the textbook 95% Wilson interval (0.4038, 0.5962).
    low, high = _wilson_interval(0.5, 100)
    assert low == pytest.approx(0.40383, abs=1e-5) and high == pytest.approx(0.59617, abs=1e-5)
    # 0/T and T/T keep the observed end exactly and stay inside [0, 1].
    z2 = 1.959963984540054**2
    assert _wilson_interval(0.0, 20) == (0.0, pytest.approx(z2 / (20 + z2)))
    assert _wilson_interval(1.0, 20) == (pytest.approx(20 / (20 + z2)), 1.0)


@pytest.mark.parametrize("gamma, estimate, interval", [(0.5, "0.0000", "[0.0000, 0.1611]"), (10, "1.0000", "[0.8389, 1.0000]")])
def test_convergence_prints_wilson_interval(tmp_path, capsys, gamma, estimate, interval):
    # At horizon 0 every trial keeps the W state, whose smc gap is 1: 0/20 hits below 0.5, 20/20 below 10.
    cfg_path = tmp_path / "conv.yaml"
    cfg_path.write_text(
        "topology:\n  m: 3\n  edges: [[1, 2], [2, 3]]\n"
        "family: {kind: smc}\n"
        "initial_state: {kind: dicke, k: 1}\nseed: 5\n"
        f"convergence: {{gamma: {gamma}, horizon: 0, trials: 20}}\n"
    )
    assert main(["convergence", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert re.search(r"\] ~= (\S+) \(", out).group(1) == estimate
    assert f"~= {estimate} (95% Wilson interval {interval}; 20 trials, family smc)" in out


def test_print_schema(capsys):
    assert main(["--print-schema"]) == 0
    out = capsys.readouterr().out
    assert "topology:" in out
    assert "initial_state:" in out


def test_no_command_is_usage_error():
    assert main([]) == 1


def test_numeric_violation_exit_code(tmp_path):
    # A matrix file that parses but is not a density matrix fails inside the
    # simulation with exit code 2.
    bad = np.eye(8, dtype=complex)  # trace 8, not a state
    save_matrix(tmp_path / "bad.json", bad)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        "topology:\n  m: 3\n  edges: [[1, 2], [2, 3]]\n"
        "family: {kind: ssc}\nsteps: 10\n"
        f"initial_state: {{kind: file, path: '{(tmp_path / 'bad.json').as_posix()}'}}\n"
    )
    assert main(["run", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("alpha", ["1.5", "abc"])
def test_compare_rejects_bad_alpha_as_config_error(tmp_path, capsys, alpha):
    cfg = write_config(tmp_path, kind=f"gossip\n  alpha: {alpha}", steps=5)
    assert main(["compare", "--config", cfg, "--output-dir", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ['"no"', '"false"', "1"])
def test_prepare_rejects_non_boolean_s_measurement(tmp_path, capsys, flag):
    cfg_path = tmp_path / "prep.yaml"
    cfg_path.write_text(
        "topology:\n  m: 3\n  edges: [[1, 2], [2, 3]]\n"
        "initial_state: {kind: random, seed: 3}\n"
        f"prepare: {{target_k: 1, use_s_measurement: {flag}, steps: 5}}\n"
    )
    assert main(["prepare", "--config", str(cfg_path)]) == 1
    assert "use_s_measurement" in capsys.readouterr().err


PATH3_YAML = "topology:\n  m: 3\n  edges: [[1, 2], [2, 3]]\n"
DISCONNECTED3_YAML = "topology:\n  m: 3\n  edges: [[1, 2]]\n"
RANDOM_START = "initial_state: {kind: random, seed: 3}\n"


def test_run_rejects_schedule_probabilities(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        "topology:\n  m: 3\n  edges: [[1, 2], [2, 3]]\nfamily: {kind: ssc}\n"
        "schedule: {mode: random, seed: 3, probabilities: [0.9, 0.1]}\n"
        "steps: 5\ninitial_state: {kind: random, seed: 3}\n"
    )
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "topology.probabilities" in err


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("prepare", PATH3_YAML + RANDOM_START + "prepare: {target_k: 1, step: 10}\n", "prepare.step"),
        ("run", PATH3_YAML + "  probabilites: [0.9, 0.1]\nfamily: {kind: ssc}\nsteps: 5\n" + RANDOM_START,
         "topology.probabilites"),
        ("run", PATH3_YAML + "family: {kind: ssc}\nsteps: 5\n" + RANDOM_START + "outptu: x.csv\n", "outptu"),
        ("run", PATH3_YAML + "family: {kind: ssc}\nsteps: 5\ninitial_state: {kind: random, sed: 3}\n",
         "initial_state.sed"),
    ],
    ids=["prepare-step", "topology-probabilites", "top-level-outptu", "initial-state-sed"],
)
def test_unknown_config_keys_are_config_errors(tmp_path, capsys, command, config, key):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(config)
    assert main([command, "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"unknown config key '{key}'" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "command, config, output",
    [
        ("run", PATH3_YAML + "family: {kind: smc}\nsteps: 400\n" + RANDOM_START, 5),
        ("prepare", PATH3_YAML + RANDOM_START + "prepare: {target_k: 1, steps: 400}\n", 5),
        ("run", PATH3_YAML + "family: {kind: smc}\nsteps: 400\n" + RANDOM_START, "sub/traj.csv"),
        ("compare", PATH3_YAML + "steps: 400\n" + RANDOM_START, "sub/traj.csv"),
    ],
    ids=["run", "prepare", "run-directory", "compare-directory"],
)
def test_bad_output_name_fails_before_the_library_runs(tmp_path, capsys, monkeypatch, command, config, output):
    def not_called(*args, **kwargs):
        raise AssertionError("the output name must be checked before the trajectory runs")

    monkeypatch.setattr(cli, "run", not_called)
    monkeypatch.setattr(cli, "prepare_dicke", not_called)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(f"{config}output: {output}\n")
    assert main([command, "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 1
    assert f"'output' must be a file name, got {output!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config",
    [
        ("run", PATH3_YAML + "family: {kind: smc}\nsteps: 400\n" + RANDOM_START),
        ("compare", PATH3_YAML + "steps: 400\n" + RANDOM_START),
        ("prepare", PATH3_YAML + RANDOM_START + "prepare: {target_k: 1, steps: 400}\n"),
    ],
    ids=["run", "compare", "prepare"],
)
def test_unusable_output_dir_fails_before_the_library_runs(tmp_path, capsys, monkeypatch, command, config):
    def not_called(*args, **kwargs):
        raise AssertionError("the output directory must be checked before the trajectory runs")

    monkeypatch.setattr(cli, "run", not_called)
    monkeypatch.setattr(cli, "prepare_dicke", not_called)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(config)
    occupied = tmp_path / "taken"
    occupied.write_text("a file, not a directory\n")
    assert main([command, "--config", str(cfg_path), "--output-dir", str(occupied)]) == 1
    assert f"config error: cannot use --output-dir {occupied}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "steps, message",
    [("", "missing key 'steps'"), ("steps: 1.5\n", "'steps' 1.5 is not an integer")],
    ids=["missing", "float"],
)
def test_top_level_steps_errors_name_the_bare_key(tmp_path, capsys, steps, message):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(PATH3_YAML + "family: {kind: ssc}\n" + RANDOM_START + steps)
    for command in ("run", "compare"):
        assert main([command, "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert message in err and "config." not in err


@pytest.mark.parametrize(
    "edges, schedule, key",
    [
        ("[[1, 2], [2, 3]]", "{mode: random, seed: 1.5}", "schedule.seed"),
        ("[[1, 2], [2, 3]]", "{mode: random, seed: true}", "schedule.seed"),
        ("[[1, 2], [2, 3]]", "{mode: random, seed: '7'}", "schedule.seed"),
        ("[[1, 2], [2, 3]]", "{mode: cyclic, order: [0.7, 1]}", "schedule.order"),
        ("[[1, 2], [2, 3]]", "{mode: cyclic, order: '01'}", "schedule.order"),
        ("[[1, 2.7], [2, 3]]", "{mode: cyclic}", "topology.edges"),
        ("[['1', 2], [2, 3]]", "{mode: cyclic}", "topology.edges"),
    ],
    ids=["seed-float", "seed-bool", "seed-str", "order-float", "order-str", "edge-float", "edge-str"],
)
def test_run_rejects_non_integer_fields(tmp_path, capsys, edges, schedule, key):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        f"topology:\n  m: 3\n  edges: {edges}\nfamily: {{kind: ssc}}\nschedule: {schedule}\n"
        "steps: 5\ninitial_state: {kind: random, seed: 3}\n"
    )
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize(
    "topology, family, key",
    [
        ("edges: [[1, 2], [2, 3]]\n  probabilities: ['0.5', '0.5']", "{kind: ssc}", "topology.probabilities[0]"),
        ("edges: [[1, 2], [2, 3]]\n  probabilities: [0.5, true]", "{kind: ssc}", "topology.probabilities[1]"),
        ("edges: [[1, 2], [2, 3]]\n  probabilities: 0.5", "{kind: ssc}", "topology.probabilities"),
        ("edges: [[1, 2], [2, 3]]", "{kind: gossip, alpha: '0.3'}", "family.alpha"),
        ("edges: [[1, 2], [2, 3]]", "{kind: gossip, alpha: true}", "family.alpha"),
        ("edges: [[1, 2], [2, 3]]\n  probabilities: [.nan, .nan]", "{kind: ssc}", "topology.probabilities[0]"),
        ("edges: [[1, 2], [2, 3]]\n  probabilities: [.inf, 0.5]", "{kind: ssc}", "topology.probabilities[0]"),
        ("edges: [[1, 2], [2, 3]]", "{kind: gossip, alpha: .nan}", "family.alpha"),
    ],
    ids=[
        "probability-str", "probability-bool", "probabilities-scalar", "alpha-str", "alpha-bool",
        "probability-nan", "probability-inf", "alpha-nan",
    ],
)
def test_run_rejects_non_numeric_fields(tmp_path, capsys, topology, family, key):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        f"topology:\n  m: 3\n  {topology}\nfamily: {family}\nschedule: {{mode: random, seed: 3}}\n"
        "steps: 5\ninitial_state: {kind: random, seed: 3}\n"
    )
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"'{key}'" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "command, config",
    [
        ("run", PATH3_YAML + "family: {kind: ssc}\nschedule: {order: [0, 5]}\nsteps: 5\n" + RANDOM_START),
        ("run", PATH3_YAML + "family: {kind: ssc}\nschedule: {order: [0, 0]}\nsteps: 5\n" + RANDOM_START),
        ("prepare", DISCONNECTED3_YAML + RANDOM_START + "prepare: {target_k: 1, steps: 5}\n"),
        ("convergence", DISCONNECTED3_YAML + "family: {kind: smc}\n" + RANDOM_START
         + "convergence: {gamma: 0.1, horizon: 5, trials: 3}\n"),
        ("run", PATH3_YAML + "family: {kind: ssc}\nsteps: 5\ninitial_state: {kind: random}\nseed: -1\n"),
        ("run", PATH3_YAML + "family: {kind: ssc}\nsteps: 5\ninitial_state: {kind: random, seed: -1}\n"),
        ("run", PATH3_YAML + "family: {kind: ssc}\nschedule: {mode: random, seed: -1}\nsteps: 5\n" + RANDOM_START),
        ("convergence", PATH3_YAML + "family: {kind: smc}\n" + RANDOM_START
         + "convergence: {gamma: .nan, horizon: 5, trials: 3}\n"),
        ("convergence", PATH3_YAML + "family: {kind: smc}\n" + RANDOM_START
         + "convergence: {gamma: .inf, horizon: 5, trials: 3}\n"),
        ("run", PATH3_YAML + "family: {kind: ssc}\nschedule: {mode: random, order: [1, 0], seed: 4}\nsteps: 5\n"
         + RANDOM_START),
        ("run", PATH3_YAML + "family: {kind: ssc}\nschedule: {mode: cyclic, seed: 5}\nsteps: 5\n" + RANDOM_START),
    ],
    ids=[
        "order-out-of-range", "order-misses-edge", "prepare-disconnected", "convergence-disconnected",
        "negative-seed", "negative-initial-state-seed", "negative-schedule-seed",
        "gamma-nan", "gamma-inf", "random-schedule-order", "cyclic-schedule-seed",
    ],
)
def test_config_mistakes_the_library_catches_exit_1(tmp_path, capsys, command, config):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(config)
    assert main([command, "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, message",
    [
        ('{"dim": 2, "entries": [1, 2, 3, 4]}', r"entry 0 1 is not an \[re, im\] pair"),
        ('{"dim": 2, "entries": [["a", "b"], ["a", "b"], ["a", "b"], ["a", "b"]]}', "'a' is not a real number"),
        ('{"dim": 2.7, "entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}', "dim 2.7 is not an integer"),
        ('{"dim": true, "entries": [[1, 0]]}', "dim True is not an integer"),
        ('{"dim": 2, "entries": [[NaN, 0], [0, 0], [0, 0], [0.5, 0]]}', "nan is not a finite number"),
    ],
    ids=["flat-entries", "string-entries", "float-dim", "bool-dim", "nan-entry"],
)
def test_malformed_matrix_files_are_input_errors(tmp_path, capsys, payload, message):
    path = tmp_path / "rho.json"
    path.write_text(payload)
    with pytest.raises(InputError, match=message):
        load_matrix(path)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        "topology:\n  m: 2\n  edges: [[1, 2]]\n"
        f"family: {{kind: ssc}}\nsteps: 5\ninitial_state: {{kind: file, path: '{path.as_posix()}'}}\n"
    )
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err
