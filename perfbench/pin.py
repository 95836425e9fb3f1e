"""Write the reference each benchmark run is checked against.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs each workload once and stores its exit code, the sha256 of its output
and, for diagnosis workloads, an 8-hex digest per target, in
``perfbench/reference/<workload>.json``.  The references in the repository
were pinned from the commit that introduced the benchmark; re-pinning to make
a failing check pass would hide the very change the check exists to catch.
"""

from __future__ import annotations

import json
import os
import sys

import spec
from run import HARD_LIMIT_S, HERE, ROOT, spawn


def main(names: list[str]) -> int:
    src = os.path.join(ROOT, "src")
    for name in names or list(spec.WORKLOADS):
        record = spawn({"workload": name, "seed": 1, "mode": "plain", "src": src}, HARD_LIMIT_S)
        if "error" in record:
            print(f"{name}: {record['error']}", file=sys.stderr)
            return 1
        reference = {"exit": record["exit"], "sha256": record["sha256"]}
        if "items" in record:
            reference["items"] = record["items"]
        with open(os.path.join(HERE, "reference", f"{name}.json"), "w") as f:
            json.dump(reference, f, indent=0)
            f.write("\n")
        print(f"{name}: exit {record['exit']}, sha256 {record['sha256']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
