"""Byte identity of the exact-algebra reports.

Each shipped config below runs in-process, and its `report.csv` and its
`report.json` (with the output directory replaced by `<out>`, as
`golden_digests.py` does) must hash to the pinned sha256, also when it is
rerun over longer reports of an earlier run.  These four
reports are pure coefficient algebra, so a refactor that moves any byte is a
numerical change.  A deliberate numerical change updates these hashes, and
CHANGES.md lists the rows it moved and why.  bound_check.json (vectorized
`exp`, sampling) and product_formula.json (BLAS `tensordot`) may differ in
the last bit across machines; `golden_digests.py` covers them between two
checkouts on one machine.
"""

from __future__ import annotations

import hashlib
import stat
from pathlib import Path

import pytest

from chaoskit.experiments import load_config, run

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CSV_SHA256 = {
    "chaos_hermite2": "81173561ecffd45f97766c1f7c836a514bff14a55cd7e737ea8f19f434bdfa88",
    "fmt_hermite2": "e002d46a6f4e63bc2caa6c924d70bb8cebf1bf444be344ddb21b12862bcbce0b",
    "joint_pair": "d583b3fe9347ae3dd4ee6ae19ac2ef2a60da6cc6751c1a588fb7cf201f7defed",
    "thm33": "42ce63593d45444b00fc325546337263994dd9284466d771a461e2e187d04452",
}
JSON_SHA256 = {
    "chaos_hermite2": "fb7f85e58669076496d8c8ff5813f5f68ab588afbb71ce24ad5deadf8e9bc8aa",
    "fmt_hermite2": "2b5866c19484e46052c731a21b3dee1e009493b7296f7961f8ffb97081996237",
    "joint_pair": "c9f33df48efc4b07e781ffdf3861317471a02329d1a7c62a4a5f635970fb07b1",
    "thm33": "d34475f3a37563b2dafd54598a7b78271c5fdc8085a9269424e511f5c3425e7f",
}


@pytest.mark.parametrize("name", sorted(CSV_SHA256))
def test_report_csv_digest(name, tmp_path):
    result = run(load_config(CONFIGS / f"{name}.json", out_override=str(tmp_path)))
    assert hashlib.sha256(result.report_csv.read_bytes()).hexdigest() == CSV_SHA256[name]


@pytest.mark.parametrize("name", sorted(JSON_SHA256))
def test_report_json_digest(name, tmp_path):
    result = run(load_config(CONFIGS / f"{name}.json", out_override=str(tmp_path)))
    report = result.report_json.read_bytes().replace(str(tmp_path).encode(), b"<out>")
    assert hashlib.sha256(report).hexdigest() == JSON_SHA256[name]


@pytest.mark.parametrize("name", sorted(CSV_SHA256))
def test_reports_rewritten_in_place(name, tmp_path):
    """Reports are created with the mode open(path, "w") gives under the
    current umask, and a rerun over longer ones leaves exactly the new bytes."""
    cfg = load_config(CONFIGS / f"{name}.json", out_override=str(tmp_path))
    first = run(cfg)
    with open(tmp_path / "reference", "w"):
        pass
    mode = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
    for path in (first.report_csv, first.report_json):
        assert stat.S_IMODE(path.stat().st_mode) == mode
        with open(path, "a") as fh:
            fh.write("stale,row\n" * 1000)
    result = run(cfg)
    assert hashlib.sha256(result.report_csv.read_bytes()).hexdigest() == CSV_SHA256[name]
    report = result.report_json.read_bytes().replace(str(tmp_path).encode(), b"<out>")
    assert hashlib.sha256(report).hexdigest() == JSON_SHA256[name]
