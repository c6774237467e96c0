#!/usr/bin/env python3
"""Write perfbench/reference.json: each workload's solve brackets and checks.

    python3 perfbench/make_reference.py

Run from the repository root, on the commit whose results are the
reference. Each workload runs once with seed 0 in a fresh process. The
stored brackets hold for every seed (see workloads.py), so the reference
is regenerated only when a change is meant to move the results.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    root = Path.cwd()
    ref = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-out-", dir=root) as out:
        for name in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), "--root", str(root),
                 "--workload", name, "--seed", "0", "--out", out, "--mode", "run"],
                cwd=root, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ref[name] = {"records": result["records"], "checks": result["checks"]}
            print(f"{name}: {len(result['records'])} records, checks {result['checks']}")
    with open(HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
