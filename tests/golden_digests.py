"""Report digests of the shipped configs, for byte-identity checks across commits.

    python3 tests/golden_digests.py [SEED ...] [--check FILE]

Runs each `configs/*.json` and the benchmark's mc-bound request for every
SEED (default: 1) in-process, into a temporary directory, and prints one
line per run: the sha256 of `report.csv` and of `report.json` with the output
directory replaced by `<out>`.  For every seed it then runs the 40 requests of
round 0 of the benchmark's many-small workload (fresh Laguerre and Jacobi
spreads, thm33-check, product-formula-check) and prints one sha256 over all
their report digests, in request order, and likewise one for round 0 of its
joint-heavy workload (Hermite and Laguerre(alpha) joint-verify up to n = 32).
It imports chaoskit from the `src/` next to this directory, so running the
script of two checkouts and diffing the output shows whether a change moved
any report byte.  With `--check FILE` it compares its listing, line by line
by run, with one saved from another checkout, names each run that differs
(or is on one side only) and exits 1 if any does.  To check a change against
an older checkout, run this version of the script in both.  Not collected by
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
from workloads import joint_heavy, many_small, mc_bound  # noqa: E402


def _digests(config: dict, out: Path) -> tuple[str, str]:
    result = experiments.run(experiments.parse_config(config, out_override=str(out)))
    csv = result.report_csv.read_bytes()
    js = result.report_json.read_bytes().replace(str(out).encode(), b"<out>")
    return hashlib.sha256(csv).hexdigest(), hashlib.sha256(js).hexdigest()


def _by_run(lines) -> dict[str, str]:
    """Run label -> its digests, from listing lines."""
    return dict(line.split(": ", 1) for line in lines if line.strip())


def main(argv: list[str]) -> int:
    saved = None
    if "--check" in argv:
        at = argv.index("--check")
        saved_path = argv[at + 1]
        saved = _by_run(Path(saved_path).read_text().splitlines())
        del argv[at:at + 2]
    ours = {}
    for line in _listing(argv or ["1"]):
        print(line, flush=True)
        ours.update(_by_run([line]))
    if saved is None:
        return 0
    differ = [run for run in {**saved, **ours} if saved.get(run) != ours.get(run)]
    for run in differ:
        print(f"DIFFERS: {run}", file=sys.stderr)
    print(f"{len(differ)} of {len(saved.keys() | ours.keys())} runs differ from {saved_path}",
          file=sys.stderr)
    return 1 if differ else 0


def _listing(seeds: list[str]):
    """One line per run: label, then its digests."""
    runs = [(p.name, json.loads(p.read_text()))
            for p in sorted((ROOT / "configs").glob("*.json"))]
    runs += [(f"mc-bound seed {s}", mc_bound(int(s), 0)[0].config) for s in seeds]
    with tempfile.TemporaryDirectory() as tmp:
        for k, (label, config) in enumerate(runs):
            csv, js = _digests(config, Path(tmp) / str(k))
            yield f"{label}: csv {csv} json {js}"
        for name, workload in (("many-small", many_small), ("joint-heavy", joint_heavy)):
            for s in seeds:
                total = hashlib.sha256()
                for k, req in enumerate(workload(int(s), 0)):
                    csv, js = _digests(req.config, Path(tmp) / f"{name}-{s}-{k}")
                    total.update(f"{csv} {js}\n".encode())
                yield f"{name} seed {s} round 0: {total.hexdigest()}"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
