"""The README's examples run against the package in src/, so a removed or renamed name shows up here."""

import os
import re
import subprocess
import sys
from pathlib import Path

import yaml

from qconsensus.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def readme_block(lang: str, after: str) -> str:
    """The first fenced `lang` block that follows the text `after` in the README."""
    return re.compile(rf"```{lang}\n(.*?)```", re.S).search(README, README.index(after)).group(1)


def test_readme_quick_start_runs(tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": "1"}
    code = readme_block("python", "## Library quick start")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    v_total, fidelity = map(float, done.stdout.split())
    assert abs(v_total - 3) < 1e-9 and abs(fidelity - 1) < 1e-9


def test_readme_minimal_config_runs(tmp_path):
    text = readme_block("yaml", "A minimal config:")
    config = yaml.safe_load(text)
    path = tmp_path / "experiment.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(path), "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / config["output"]).read_text(encoding="utf-8").splitlines()
    assert len(lines) == config["steps"] + 1
    assert {len(line.split(",")) for line in lines} == {config["topology"]["m"] + 7}
