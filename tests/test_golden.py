"""Golden reports: every job recorded in `bench/golden.json`, run
in-process through `glq.cli.main`, exits 0 and prints exactly the
recorded report bytes (sha256 of stdout)."""

import hashlib
import json
import pathlib

import pytest

from glq.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).resolve().parents[1]
                     / "bench" / "golden.json").read_text())


def _argv(key):
    # The last argument of a normalform job is an expression with spaces.
    if key.startswith("normalform "):
        return key.split(" ", 5)
    return key.split()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_report_matches_golden_bytes(capsys, key):
    code = main(_argv(key))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOLDEN[key]["report_sha256"]
