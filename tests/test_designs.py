"""Each checked design against its record in the ledger (`make_designs.py`)."""
import json

import pytest

from make_designs import DESIGNS, LEDGER, run_design, versions

LEDGER_DATA = json.loads(LEDGER.read_text())


def test_ledger_lists_every_design():
    assert list(LEDGER_DATA["designs"]) == list(DESIGNS)
    for name, (argv, rounding) in DESIGNS.items():
        assert LEDGER_DATA["designs"][name]["argv"] == argv
        assert LEDGER_DATA["designs"][name]["rounding_sensitive"] == rounding


@pytest.mark.parametrize("name", list(DESIGNS))
def test_design_matches_ledger(name, tmp_path):
    want = LEDGER_DATA["designs"][name]
    got = run_design(want["argv"], tmp_path)
    assert (got["exit"], got["stop_reason"], got["records"]) == (
        want["exit"],
        want["stop_reason"],
        want["records"],
    )
    same_build = versions() == {k: LEDGER_DATA[k] for k in ("numpy", "scipy")}
    if want["rounding_sensitive"] and not same_build:
        return  # where its stagnation falls hangs on the last bits of the arithmetic
    assert float(got["final_cost"]) == pytest.approx(float(want["final_cost"]), rel=1e-12, abs=0.0)
    if same_build:  # other builds may round differently: the bytes are pinned on this one
        assert got["sha256"] == want["sha256"]
