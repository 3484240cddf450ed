"""Byte identity of `simulate run` bundles against golden_bundles.json.

Every preset and variant, full buffer and SINR-only, at two seeds: a change
that should keep the bytes keeps every digest here. The table is re-recorded
with tests/record_golden_bundles.py only by a change that means to move the
bytes, and that change names each moved file and why.
"""

from __future__ import annotations

import json
import platform

import numpy as np
import pytest

from record_golden_bundles import TABLE, bundle_digests, cases

RECORD = json.loads(TABLE.read_text())
HERE = (platform.python_version(), np.__version__)


@pytest.mark.skipif(HERE != (RECORD["python"], RECORD["numpy"]),
                    reason=f"golden bundles recorded on python {RECORD['python']} / numpy "
                           f"{RECORD['numpy']}, running python {HERE[0]} / numpy {HERE[1]}")
@pytest.mark.parametrize("case, argv", cases(), ids=[case for case, _ in cases()])
def test_bundle_matches_golden(case, argv):
    expected = RECORD["cases"][case]
    got = bundle_digests(argv)
    changed = sorted(name for name in expected.keys() | got.keys()
                     if expected.get(name) != got.get(name))
    assert not changed, f"{case}: files differ from golden_bundles.json: {', '.join(changed)}"
