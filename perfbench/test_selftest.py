"""Toy-size self-test of the benchmark harness: m = 3-4, a few ops per workload.

    python3 -m pytest -q perfbench

Runs every workload path with and without tracing, every correctness check
(each against an output broken on purpose) and the trace writer.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import record_refs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

SEED = 5
NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def toy_refs(tmp_path_factory):
    base = tmp_path_factory.mktemp("refs")
    path = base / "refs.json"
    record_refs.record_refs(path, SEED, workloads.TOY, base / "work")
    return path


def run_toy(name, trace, refs_path, out_dir):
    return run.run_workload(
        name, SEED, 0.0, trace, params=workloads.TOY[name], refs_path=refs_path, setups=2, out_dir=out_dir
    )


def toy_workload(name, tmp_path):
    mods = run.import_program(with_cli=True)
    return workloads.WORKLOADS[name](mods, SEED, workloads.TOY[name], None, {}, tmp_path)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_clean(name, trace, toy_refs, tmp_path):
    result, lines, errors = run_toy(name, trace, toy_refs, tmp_path)
    assert errors == []
    assert result["correct"] and result["failed"] == 0
    expected = tracing.per_layer_units() if trace else run.END_TO_END
    assert {key: m["unit"] for key, m in result["metrics"].items()} == expected
    if trace:
        payload = json.loads((tmp_path / f"trace-{name}-seed{SEED}.json").read_text())
        spans = payload["spans"]
        assert {"op", "qcore.apply_channel", "simulator.run"} <= {span[0] for span in spans}
        assert all(span[2] >= span[1] for span in spans)
        assert result["metrics"]["qcore.apply_channel.calls"]["value"] > 0
    else:
        assert result["attempted"] > run.TAIL_BEYOND
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _tamper(name, entry):
    if name == "traj_m9":
        entry["v_total"] += 1e-6
    elif name == "mc_m6":
        entry["estimate"] = 2.0
    else:
        for csv_name, text in entry["csv"].items():
            lines = text.splitlines()
            fields = lines[1].split(",")
            fields[1] = repr(float(fields[1]) + 1e-6)
            entry["csv"][csv_name] = "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n"
        if entry["estimate"] is not None:
            entry["estimate"] = "9.9999"


@pytest.mark.parametrize("name", NAMES)
def test_wrong_references_fail_every_checked_op(name, toy_refs, tmp_path):
    refs = json.loads(toy_refs.read_text())
    for entry in refs["workloads"][name]["entries"]:
        _tamper(name, entry)
    bad = tmp_path / "refs.json"
    bad.write_text(json.dumps(refs))
    result, _, errors = run_toy(name, 0, bad, tmp_path)
    assert not result["correct"]
    unchecked = result["attempted"] // 6 if name == "cli_session" else 0  # verify has no reference
    assert result["failed"] == result["attempted"] - unchecked
    assert any("warm-up" in e for e in errors)


def test_mc_reference_gap_near_gamma_fails(toy_refs, tmp_path):
    refs = json.loads(toy_refs.read_text())
    for entry in refs["workloads"]["mc_m6"]["entries"]:
        entry["gaps"][0] = workloads.TOY["mc_m6"]["gamma"] * (1 + 1e-7)
    bad = tmp_path / "refs.json"
    bad.write_text(json.dumps(refs))
    result, _, errors = run_toy("mc_m6", 0, bad, tmp_path)
    assert result["failed"] == result["attempted"]
    assert "within" in errors[0]


def test_trajectory_invariant_checks(tmp_path):
    wl = toy_workload("traj_m9", tmp_path)
    good = wl.op(0)  # gossip
    assert wl.check(0, good) == []
    records = list(good.records)

    def broken(**changes):
        index = changes.pop("index", -1)
        recs = list(records)
        recs[index] = dataclasses.replace(recs[index], **changes)
        return dataclasses.replace(good, records=recs)

    assert "s_expectation drifts" in " ".join(wl.check(0, broken(s_expectation=records[-1].s_expectation + 1e-6)))
    assert "purity rises" in " ".join(wl.check(0, broken(purity=records[-2].purity + 1e-9)))
    assert "records, expected" in " ".join(wl.check(0, dataclasses.replace(good, records=records[:-1])))
    assert "final trace" in " ".join(wl.check(0, dataclasses.replace(good, final_state=good.final_state * 1.001)))
    assert "differ from an earlier run" in " ".join(wl.check(0, broken(index=0, v_smc=records[0].v_smc + 1e-15)))


def test_monte_carlo_invariant_checks(tmp_path):
    wl = toy_workload("mc_m6", tmp_path)
    out = wl.op(0)
    assert wl.check(0, out) == []
    assert "not a hit count" in " ".join(wl.check(0, out + 1e-3))
    other = out + 1 / wl.trials if out < 1 else out - 1 / wl.trials
    assert "differs from an earlier run" in " ".join(wl.check(0, other))


def test_cli_checks(tmp_path):
    wl = toy_workload("cli_session", tmp_path)
    outs = [wl.op(k) for k in range(wl.cycle)]
    assert [wl.check(k, out) for k, out in enumerate(outs)] == [[]] * wl.cycle
    assert "exit code 2" in " ".join(wl.check(0, (2, "", "numeric invariant violation")))
    prepare, verify = 3, 5
    code, stdout, stderr = outs[prepare]
    low = re.sub(r"(Dicke state \(k=1\): )\S+", r"\g<1>0.5", stdout)
    assert "fidelity 0.5 below" in " ".join(wl.check(prepare, (code, low, stderr)))
    code, stdout, stderr = outs[verify]
    assert "overall: PASS" in " ".join(wl.check(verify, (code, stdout.replace("PASS", "FAIL"), stderr)))
    csv = wl.out_dir / "run_smc.csv"
    csv.write_bytes(csv.read_bytes().replace(b"\n", b"\r\n"))
    assert "CSV bytes differ" in " ".join(wl.check(0, outs[0]))
