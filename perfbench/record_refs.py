"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_refs.py

Runs every input of every workload once, at workloads.REFERENCE_SEED and full
size, checks the invariants, and writes perfbench/refs.json.  Record it from
the commit whose outputs are the reference, and only then.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def record_refs(path, seed, sizes, work_dir) -> None:
    """Write the references of every workload at `sizes` for `seed` to `path`."""
    refs = {"seed": seed, "source_sha256": run.source_digest(), "workloads": {}}
    for name, cls in workloads.WORKLOADS.items():
        mods = run.import_program(with_cli=name == "cli_session")
        wl = cls(mods, seed, sizes[name], None, {}, work_dir / name)
        entries = []
        for i in range(wl.pool):
            out = wl.op(i)
            errors = wl.check(i, out)
            if errors:
                raise RuntimeError(f"{name}: invariant checks fail, no reference recorded: {errors}")
            entries.append(wl.reference(i, out))
        refs["workloads"][name] = {"entries": entries}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work_dir = run.OUT / "record-refs"
    try:
        record_refs(run.REFS, workloads.REFERENCE_SEED, workloads.FULL, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"wrote {run.REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
