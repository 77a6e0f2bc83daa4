"""Record ``reference.json``: the seed-free output digests of every workload.

    python3 perfbench/record_reference.py

Runs one untraced pass with the serial oracles per workload, at full and
at tiny size, and refuses to record a pass whose checks failed.  Re-record
only in a change that alters simulated behaviour on purpose (a synthesis
fix, a new workload); a change that only makes the program faster must
leave every digest as it is.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, HERE, RUN_LIMIT_S, run_pass
from workloads import WORKLOADS


def main() -> int:
    table: dict[str, dict[str, dict[str, str]]] = {}
    for name in WORKLOADS:
        for size, tiny in (("full", False), ("tiny", True)):
            result, error = run_pass(name, DEFAULT_SEED, traced=False,
                                     oracle=True, tiny=tiny,
                                     timeout=RUN_LIMIT_S)
            if result is None or result["failures"]:
                print(f"{name} ({size}): "
                      f"{error or result['failures']}", file=sys.stderr)
                return 1
            table.setdefault(name, {})[size] = result["fixed"]
            print(f"{name} ({size}): {result['fixed']}", file=sys.stderr)
    (HERE / "reference.json").write_text(
        json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
