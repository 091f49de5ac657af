"""chaoskit benchmark: closed-loop workloads with end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is joint-heavy, mc-bound, many-small, or `all` (each of the three in a
fresh process, one after another).  Run it from anywhere; it imports chaoskit
from the `src/` next to this directory and writes only under `.bench_out/`
there.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it print every
metric by name and unit, the environment, and failures.

One client runs requests in a closed loop in this process: an untimed warm-up
request, then rounds of the workload's request list, ending at the round
boundary nearest to S seconds.  `wall_s` is the mean wall time of a round,
that is the timed wall time over the rounds run.  With --trace 1 it instead runs a fixed number
of rounds untraced and then the same rounds traced, and reports per-layer
metrics from the traced pass; the fixed count makes the per-layer counts
repeat exactly.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
from workloads import TRACE_ROUNDS, WORKLOADS, Request  # noqa: E402

SETUP_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3
P90_MIN_REQUESTS = 100  # so that at least 10 samples lie beyond the 90th percentile
END_TO_END = {"setup_s": "s", "wall_s": "s", "req_p50_ms": "ms", "peak_rss_mb": "MB"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(records: list[dict]) -> list[tuple]:
    """Report digests of the requests, in order (None for a request that raised)."""
    return [(r.get("csv_sha256"), r.get("json_sha256")) for r in records]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    nproc = shutil.which("nproc")
    status = _git("status", "--porcelain", "--untracked-files=no")
    sources = sorted((SRC / "chaoskit").rglob("*.py"))
    return {
        "nproc": int(subprocess.run([nproc], capture_output=True, text=True).stdout) if nproc else None,
        "sched_getaffinity": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "CHAOSKIT_THREADS": os.environ.get("CHAOSKIT_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": _sha256(b"".join(
            str(p.relative_to(SRC)).encode() + p.read_bytes() for p in sources)),
    }


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter that imports chaoskit.cli."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import chaoskit.cli"], env=_child_env(),
                       cwd=ROOT, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _import_seconds(importtime_log: str) -> dict[str, float]:
    """Cumulative import time of the chaoskit package, and of every scipy module
    imported from outside scipy (scipy.stats loads lazily, so it has no line of
    its own; its submodules hang directly under chaoskit.montecarlo)."""
    out = {"chaoskit": 0.0, "scipy.stats": 0.0}
    ancestors: list[str] = []
    # The log lists children before their parent; read it backwards.
    for line in reversed(importtime_log.splitlines()):
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        depth = (len(parts[2]) - len(parts[2].lstrip()) - 1) // 2
        del ancestors[depth:]
        parent = ancestors[-1] if ancestors else ""
        ancestors.append(name)
        cumulative = int(parts[1]) * 1e-6
        if name == "chaoskit":
            out["chaoskit"] = cumulative
        elif name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            out["scipy.stats"] += cumulative
    return out


def import_times() -> dict[str, float]:
    """Medians of `_import_seconds` over fresh `-X importtime` launches."""
    runs = []
    for _ in range(IMPORTTIME_LAUNCHES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import chaoskit.cli"],
                              env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                              check=True)
        runs.append(_import_seconds(proc.stderr))
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}


def _verify(req: Request, result) -> dict:
    """Check a request's verdict and report; returns the record's other fields."""
    report_json = result.report_json.read_bytes()
    problems = []
    if result.failures != req.expected_failures or result.passed != (not req.expected_failures):
        problems.append(f"verdict passed={result.passed} failures={result.failures}, "
                        f"expected failures={req.expected_failures}")
    if req.check is not None:
        problems.extend(req.check(json.loads(report_json)))
    return {"passed": result.passed, "ok": not problems, "problems": problems,
            "csv_sha256": _sha256(result.report_csv.read_bytes()),
            "json_sha256": _sha256(report_json)}


class Client:
    """One closed-loop client: the next request starts when the last returned."""

    def __init__(self, workload: str, seed: int) -> None:
        from chaoskit import experiments

        self.experiments = experiments
        self.make_round = WORKLOADS[workload]
        self.seed = seed
        self.out_dir = OUT / workload / f"seed{seed}"

    def request(self, req: Request) -> dict:
        """Run one request, verify its report, and return its record.  A request
        that raises, or whose report cannot be verified, is a failed one."""
        exp = self.experiments  # module attributes, so a tracer's patch applies
        t0 = perf_counter()
        latency_ms = None
        try:
            result = exp.run(exp.parse_config({**req.config, "out": str(self.out_dir)}))
            latency_ms = (perf_counter() - t0) * 1e3
            return {"label": req.label, "latency_ms": latency_ms, **_verify(req, result)}
        except Exception:
            if latency_ms is None:
                latency_ms = (perf_counter() - t0) * 1e3
            return {"label": req.label, "latency_ms": latency_ms,
                    "ok": False, "problems": [traceback.format_exc()]}

    def round(self, index: int) -> tuple[list[dict], float]:
        """Run round `index` of the workload; returns its records and wall time."""
        t0 = perf_counter()
        records = [self.request(req) for req in self.make_round(self.seed, index)]
        wall = perf_counter() - t0
        for i, rec in enumerate(records):
            rec.update(round=index, index=i)
        return records, wall

    def rounds(self, count: int) -> tuple[list[dict], float]:
        """Run rounds 0..count-1; returns their records and summed wall time."""
        records, wall = [], 0.0
        for index in range(count):
            recs, round_wall = self.round(index)
            records += recs
            wall += round_wall
        return records, wall

    def warm_up(self) -> dict:
        return dict(self.request(self.make_round(self.seed, 0)[0]), round="warm-up", index=0)


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], dict]:
    """Untraced run: (end-to-end metrics, request records, extra table rows)."""
    setup_s = setup_seconds()
    client = Client(workload, seed)
    records = [client.warm_up()]
    walls = []
    start = perf_counter()
    # Stop at the round boundary nearest to `seconds`, so long rounds overshoot less.
    while not walls or perf_counter() - start + walls[-1] / 2 < seconds:
        recs, wall = client.round(len(walls))
        records.extend(recs)
        walls.append(wall)
    latencies = [r["latency_ms"] for r in records if r["round"] != "warm-up"]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(walls),
        "req_p50_ms": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failed = sum(not r["ok"] for r in records)
    extra = {
        "req_p90_ms": (f"{statistics.quantiles(latencies, n=10)[8]:.6g} ms"
                       if len(latencies) >= P90_MIN_REQUESTS
                       else f"n/a (needs {P90_MIN_REQUESTS} timed requests)"),
        "fail_ratio": f"{failed / len(records):.6g} ({failed} of {len(records)} requests)",
        "timed": f"{len(latencies)} requests in {len(walls)} rounds, plus 1 warm-up",
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, records, extra


def measure_traced(workload: str, seed: int) -> tuple[dict, list[dict], dict, list[str]]:
    """Traced run: (per-layer metrics, records, extra rows, self-check problems)."""
    from tracing import Tracer

    imports = import_times()
    client = Client(workload, seed)
    records = [client.warm_up()]
    plain, plain_wall = client.rounds(TRACE_ROUNDS[workload])
    tracer = Tracer()
    with tracer.patch():
        traced, traced_wall = client.rounds(TRACE_ROUNDS[workload])
    for rec in traced:
        rec["traced"] = True
    records += plain + traced
    metrics = tracer.metrics()
    metrics["import.chaoskit_s"] = (imports["chaoskit"], "s")
    metrics["import.scipy_stats_s"] = (imports["scipy.stats"], "s")
    problems = tracer.accounting_problems(traced_wall)
    if digests(plain) != digests(traced):
        problems.append("traced reports differ from untraced reports of the same rounds")
    # Figures of the tracing itself, not of chaoskit: printed, not declared.
    extra = {name: f"{value:.6g} {unit}" for name, (value, unit) in
             tracer.accounting(traced_wall).items()}
    extra["trace.overhead_ratio"] = f"{traced_wall / plain_wall:.6g} ratio"
    extra["untraced_wall_s"] = f"{plain_wall:.6g} s"
    extra["timed"] = (f"{TRACE_ROUNDS[workload]} rounds ({len(plain)} requests) untraced, "
                      "then traced, plus 1 warm-up")
    return metrics, records, extra, problems


def run_all(args) -> int:
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            totals["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(totals))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chaoskit" / "__init__.py").is_file():
        print(f"bench: no chaoskit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    env = environment()
    if args.trace:
        metrics, records, extra, problems = measure_traced(args.workload, args.seed)
    else:
        metrics, records, extra = measure(args.workload, args.seed, args.seconds)
        problems = []
    failed = sum(not r["ok"] for r in records)
    OUT.mkdir(exist_ok=True)
    side = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    side.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": extra,
        "requests": records,
    }, indent=1) + "\n")

    print(f"chaoskit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    for name, text in extra.items():
        print(f"  {name:<40} {text}")
    for rec in records:
        for line in rec["problems"]:
            print(f"FAILED {rec['round']}/{rec['index']} {rec['label']}: {line}")
    for line in problems:
        print(f"SELF-CHECK FAILED: {line}")
    print(f"records: {side.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
