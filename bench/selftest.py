"""Self-tests of the benchmark's tracing.

    python3 bench/selftest.py

1. Counts on a known product: the square of the first pair_mixed(2, 2, 1/2, 8)
   component has 61 terms, 16 of them quadrature residue at or below 1e-12 of
   its norm.
2. For each workload, round 0 of seed 1 runs traced twice, and the two passes
   must give exactly the same counts.

`bench/run.py --trace 1` checks the rest on every traced run: that traced and
untraced reports have the same digests, and that self times account for the
traced wall time.  Prints one line per check and exits 1 if any fails.  Takes
about half a minute.
"""

from __future__ import annotations

import sys

from run import SRC, Client
from tracing import Tracer
from workloads import WORKLOADS

SEED = 1


def check_known_product() -> list[str]:
    from chaoskit import spectral
    from chaoskit.sequences import pair_mixed

    f1, _ = pair_mixed(2, 2, 0.5, 8)
    tracer = Tracer()
    with tracer.patch():
        spectral.multiply(f1, f1)
    _, counts = tracer.totals()
    got = (counts["spectral.multiply.out_terms"], counts["spectral.multiply.junk_terms"])
    return [] if got == (61, 16) else [f"square of pair_mixed(2,2,0.5,8)[0]: "
                                       f"(terms, junk) = {got}, expected (61, 16)"]


def check_counts_repeat(workload: str) -> list[str]:
    client = Client(workload, SEED)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.patch():
            client.round(0)
        counts.append({name: value for name, (value, unit) in tracer.metrics().items()
                       if unit != "s"})
    if counts[0] == counts[1]:
        return []
    diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
    return [f"counts differ between two traced passes: {diff}"]


def main() -> int:
    sys.path.insert(0, str(SRC))
    checks = [("known product counts", check_known_product)]
    checks += [(f"{w} counts repeat", lambda w=w: check_counts_repeat(w)) for w in WORKLOADS]
    failed = 0
    for name, check in checks:
        problems = check()
        failed += bool(problems)
        print(f"{'ok  ' if not problems else 'FAIL'} {name}")
        for line in problems:
            print(f"     {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
