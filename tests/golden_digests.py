"""Report digests of the shipped configs, for byte-identity checks across commits.

    python3 tests/golden_digests.py [SEED ...]

Runs each `configs/*.json` and the benchmark's mc-bound request for every
SEED (default: 1) in-process, into a temporary directory, and prints one
line per run: the sha256 of `report.csv` and of `report.json` with the output
directory replaced by `<out>`.  For every seed it then runs the 40 requests of
round 0 of the benchmark's many-small workload (fresh Laguerre and Jacobi
spreads, thm33-check, product-formula-check) and prints one sha256 over all
their report digests, in request order.  It imports chaoskit from the `src/`
next to this directory, so running the script of two checkouts and diffing
the output shows whether a change moved any report byte.  Not collected by
pytest.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from chaoskit import experiments  # noqa: E402
from workloads import many_small, mc_bound  # noqa: E402


def _digests(config: dict, out: Path) -> tuple[str, str]:
    result = experiments.run(experiments.parse_config(config, out_override=str(out)))
    csv = result.report_csv.read_bytes()
    js = result.report_json.read_bytes().replace(str(out).encode(), b"<out>")
    return hashlib.sha256(csv).hexdigest(), hashlib.sha256(js).hexdigest()


def main(argv: list[str]) -> int:
    runs = [(p.name, json.loads(p.read_text()))
            for p in sorted((ROOT / "configs").glob("*.json"))]
    seeds = argv or ["1"]
    runs += [(f"mc-bound seed {s}", mc_bound(int(s), 0)[0].config) for s in seeds]
    with tempfile.TemporaryDirectory() as tmp:
        for k, (label, config) in enumerate(runs):
            csv, js = _digests(config, Path(tmp) / str(k))
            print(f"{label}: csv {csv} json {js}")
        for s in seeds:
            total = hashlib.sha256()
            for k, req in enumerate(many_small(int(s), 0)):
                csv, js = _digests(req.config, Path(tmp) / f"many-small-{s}-{k}")
                total.update(f"{csv} {js}\n".encode())
            print(f"many-small seed {s} round 0: {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
