#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the report digests for the default seed.

Runs every item of every pass of every workload once, at the default seed
and full size, and stores the first 16 hex digits of the sha256 of each
report.  Run it from the repository root only after an intended change to a
report's bytes, and review the diff:

    python3 perfbench/make_reference.py
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import WORKLOADS


def main() -> int:
    program = run.load_program()
    run.OUT.mkdir(exist_ok=True)
    digests = {}
    for name, cls in WORKLOADS.items():
        workdir = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=run.OUT))
        os.chdir(workdir)
        try:
            wl = cls(name, program, workdir, run.DEFAULT_SEED, False)
            wl.setup()
            bench = run.Run(wl, None)
            for k in range(wl.passes):
                bench.run_pass(k)
        finally:
            os.chdir(run.ROOT)
            shutil.rmtree(workdir, ignore_errors=True)
        if bench.failed:
            print(f"{name}: {bench.failed} failed items, reference not written", file=sys.stderr)
            for line in bench.failures:
                print("  " + line, file=sys.stderr)
            return 1
        digests[name] = {label: d[:16] for label, d in sorted(bench.digests.items())}
        print(f"{name}: {len(digests[name])} reports")
    payload = {"seed": run.DEFAULT_SEED, "workloads": digests}
    (run.HERE / "reference.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
