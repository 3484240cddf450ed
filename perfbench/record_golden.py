"""Record golden.json: each workload's output digest at the default seed.

    python3 perfbench/record_golden.py

Run it on the commit whose outputs are the reference. The digests hold only
for the Python and numpy versions written beside them.
"""

from __future__ import annotations

import json
import platform
import shutil

import run


def main() -> None:
    digests = {}
    for name, workload in run.WORKLOADS.items():
        outcome = run.evaluate(workload, workload.config(run.DEFAULT_SEED),
                               run.OUT / "golden")
        digests[name] = outcome.digest
        print(name, outcome.digest)
    shutil.rmtree(run.OUT / "golden")
    record = {
        "seed": run.DEFAULT_SEED,
        "python": platform.python_version(),
        "numpy": run.np.__version__,
        "digests": digests,
    }
    run.GOLDEN.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
