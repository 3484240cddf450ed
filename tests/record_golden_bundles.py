"""Record golden_bundles.json: the SHA-256 of every file that `simulate run`
writes, for each preset and variant, full buffer and ``--sinr-only``.

    PYTHONPATH=src python3 tests/record_golden_bundles.py

Run it on the commit whose bundles are the reference. The digests hold only
for the Python and numpy versions written beside them;
``tests/test_golden_bundles.py`` checks them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from imteval import cli
from imteval.scenario import TestEnvironment, list_presets

TABLE = Path(__file__).with_name("golden_bundles.json")
SEEDS = (7, 11)


def cases() -> list:
    """(case id, `simulate run` arguments) for every preset and variant, full
    buffer and SINR-only, at each seed; dense urban runs one drop, the rest
    two."""
    found = []
    for env, variant, _ in list_presets():
        drops = 1 if env is TestEnvironment.DENSE_URBAN_EMBB else 2
        for seed in SEEDS:
            for sinr_only in (False, True):
                mode = "sinr_only" if sinr_only else "full_buffer"
                argv = ["run", "--scenario", env.value, "--variant", variant,
                        "--drops", str(drops), "--seed", str(seed)]
                found.append((f"{env.value}/{variant}/{mode}/seed{seed}",
                              argv + ["--sinr-only"] * sinr_only))
    return found


def bundle_digests(argv) -> dict:
    """{file name: SHA-256} of the bundle one `simulate run` writes."""
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv + ["--out", out])
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(out).iterdir())}


def main() -> None:
    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cases": {case: bundle_digests(argv) for case, argv in cases()},
    }
    TABLE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record['cases'])} cases to {TABLE}")


if __name__ == "__main__":
    main()
