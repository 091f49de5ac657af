"""The benchmark's workloads: seeded request lists with their expected outcomes.

A workload is a function `(seed, round) -> list[Request]`.  A request is one
`experiments.run(parse_config(config))`; the benchmark adds the output
directory.  Every round of one seed is drawn from its own stream, so a run
that completes more rounds than another sees the same requests first.  Each
round holds a fixed mix of request kinds, which keeps the work per round
nearly the same for every seed.

What each request must produce is stated with it: the exact failure lines
of the verdict (none for a pass) and, where a closed form is known, a check
of report values against it.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from typing import Callable

HERMITE = {"kind": "hermite", "params": []}

# Closed forms hold to rounding; 1e-12 relative leaves ~1e4 ulps of headroom.
REL_TOL = 1e-12


@dataclass
class Request:
    label: str
    config: dict
    expected_failures: list[str] = field(default_factory=list)
    # report.json payload -> problems found (empty when the report is right)
    check: Callable[[dict], list[str]] | None = None


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_index}")


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= REL_TOL * abs(expected)


def realized_rho(rho: float, n: int) -> float:
    """rho_n = sign(rho) ceil(|rho| n) / n, the covariance pair_mixed realizes."""
    return math.copysign(min(n, math.ceil(abs(rho) * n)) / n, rho)


def pair_prop31(rho: float, n: int) -> float:
    """prop31 of Hermite pair_mixed(2, 2, rho, n): 2 sqrt((1 + |rho_n|) / n)."""
    return 2.0 * math.sqrt((1.0 + abs(realized_rho(rho, n))) / n)


# -- joint-heavy ---------------------------------------------------------------
#
# Large products on pair_mixed(2, 2, rho) up to n = 32: nearly all time is in
# `spectral`.  Each round runs every rho of the menu once, alternating Hermite
# and Laguerre(alpha), so rounds differ only in order, in which family gets
# which rho, and in alpha.  The menu is positive: for rho < 0 the runner's
# mixed22 closed form uses the signed rho_n while int F1^2 F2^2 does not
# depend on the sign, so joint-verify fails on correct diagnostics.  The
# checks below already take a negative rho: rho_realized is compared signed,
# prop31 on |rho_n|.

JOINT_RHOS = (0.25, 0.3, 0.5, 0.75)
JOINT_GRID = (2, 4, 8, 16, 32)


def _check_joint_hermite(rho: float, report: dict) -> list[str]:
    problems = []
    for info in report["summary"]["per_n"]:
        n = info["n"]
        rho_n = realized_rho(rho, n)
        if not _close(info["rho_realized"], rho_n):
            problems.append(f"n={n}: rho_realized {info['rho_realized']!r} != {rho_n!r}")
        if not _close(info["prop31"], pair_prop31(rho, n)):
            problems.append(
                f"n={n}: prop31 {info['prop31']!r} != closed form {pair_prop31(rho, n)!r}")
    return problems


def joint_heavy(seed: int, round_index: int) -> list[Request]:
    rng = _rng("joint-heavy", seed, round_index)
    rhos = list(JOINT_RHOS)
    rng.shuffle(rhos)
    out = []
    for i, rho in enumerate(rhos):
        if i % 2 == 0:
            kind, label = HERMITE, f"joint hermite rho={rho}"
            check = functools.partial(_check_joint_hermite, rho)
        else:
            alpha = rng.uniform(0.0, 2.0)
            kind, label = {"kind": "laguerre", "params": [alpha]}, f"joint laguerre({alpha:.4f}) rho={rho}"
            check = None
        config = {
            "experiment": "joint-verify",
            "sequence": {"family": "pair_mixed", "kind": kind, "p1": 2, "p2": 2, "rho": rho},
            "n_grid": list(JOINT_GRID),
            "seed": rng.randrange(2**32),
        }
        out.append(Request(label, config, check=check))
    return out


# -- mc-bound ------------------------------------------------------------------
#
# bound-check at 1e5 samples: sampling, evaluation and basis.eval_all dominate.
# The vector types of configs/bound_check.json plus Laguerre and Jacobi
# eigenfunctions, so every `_draw` branch runs.  The shipped hermite-Q1 is left
# out: it is exactly Gaussian, its bound is 0 and its rows are a bare 3-sigma
# test, which misses on about 1 request in 100 (4 of 400 seeds).  On the
# vectors kept, gap / allowed stayed below 0.2 on every seed tried.

MC_VECTORS = (
    {"name": "hermite-Q2-normalized", "type": "eigenfunction", "kind": HERMITE,
     "degree": 2, "scale": 0.7071067811865476},
    {"name": "pair-rho0-n2", "type": "pair_mixed", "p1": 2, "p2": 2, "rho": 0.0, "n": 2},
    {"name": "pair-rho0-n8", "type": "pair_mixed", "p1": 2, "p2": 2, "rho": 0.0, "n": 8},
    {"name": "pair-rho5-n2", "type": "pair_mixed", "p1": 2, "p2": 2, "rho": 0.5, "n": 2},
    {"name": "pair-rho5-n8", "type": "pair_mixed", "p1": 2, "p2": 2, "rho": 0.5, "n": 8},
    {"name": "laguerre-Q1", "type": "eigenfunction",
     "kind": {"kind": "laguerre", "params": [0.5]}, "degree": 1},
    {"name": "laguerre-Q2", "type": "eigenfunction",
     "kind": {"kind": "laguerre", "params": [0.5]}, "degree": 2},
    {"name": "jacobi-Q1", "type": "eigenfunction",
     "kind": {"kind": "jacobi", "params": [2.0, 3.0]}, "degree": 1},
    {"name": "jacobi-Q2", "type": "eigenfunction",
     "kind": {"kind": "jacobi", "params": [2.0, 3.0]}, "degree": 2},
)
# prop31 closed forms: c Q2 has Gamma(F, -L^-1 F) = c^2 x^2, so the bound is
# c^2 sqrt(E (1 - x^2)^2) = c^2 sqrt(2); pairs as in pair_prop31.
MC_PROP31 = {
    "hermite-Q2-normalized": 0.5 * math.sqrt(2.0),
    **{v["name"]: pair_prop31(v["rho"], v["n"]) for v in MC_VECTORS if v["type"] == "pair_mixed"},
}


def _check_mc(report: dict) -> list[str]:
    columns = report["columns"]
    name_col, prop_col = columns.index("vector"), columns.index("prop31")
    problems = []
    for row in report["rows"]:
        expected = MC_PROP31.get(row[name_col])
        if expected is not None and not _close(row[prop_col], expected):
            problems.append(f"{row[name_col]}: prop31 {row[prop_col]!r} != {expected!r}")
    return problems


def mc_bound(seed: int, round_index: int) -> list[Request]:
    rng = _rng("mc-bound", seed, round_index)
    config = {
        "experiment": "bound-check",
        "vectors": [dict(v) for v in MC_VECTORS],
        "t_axis": [0.25, 0.5, 1.0, 2.0],
        "t_max": 3.0,
        "n_samples": 100_000,
        "seed": rng.randrange(2**32),
    }
    return [Request("bound-check", config, check=_check_mc)]


# -- many-small ----------------------------------------------------------------
#
# Forty requests of 5-50 ms, each on fresh product spaces: basis construction,
# cold linearizations and report writing dominate, and products are tiny.
# Jacobi eigenvalues grow quadratically, so Q_p^2 reaches above 2 lambda_p and
# every Jacobi spread must be reported non-chaotic at every n.

SMALL_GRIDS = ((1, 2, 3, 4), (1, 2, 4, 8), (2, 4, 6))


def _small_kinds(rng: random.Random) -> list[dict]:
    return [
        HERMITE,
        {"kind": "laguerre", "params": [rng.uniform(0.0, 2.0)]},
        {"kind": "jacobi", "params": [rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0)]},
    ]


def many_small(seed: int, round_index: int) -> list[Request]:
    rng = _rng("many-small", seed, round_index)
    out = []
    for kind in _small_kinds(rng):
        for experiment, fail_line in (
            ("fmt-verify", "fmt-verify: sequence element not chaotic at n={}"),
            ("chaos-check", "chaos-check: not chaotic at n={}"),
        ):
            for _ in range(3):
                p = rng.choice((1, 2, 3))
                grid = list(rng.choice(SMALL_GRIDS))
                config = {
                    "experiment": experiment,
                    "sequence": {"family": "spread", "kind": kind, "p": p},
                    "n_grid": grid,
                    "seed": rng.randrange(2**32),
                }
                expected = ([fail_line.format(n) for n in grid]
                            if kind["kind"] == "jacobi" else [])
                out.append(Request(f"{experiment} {kind['kind']} p={p}", config, expected))
    for kind in _small_kinds(rng)[:2]:
        config = {
            "experiment": "chaos-check",
            "sequence": {"family": "pair_mixed", "kind": kind, "p1": 2, "p2": 2,
                         "rho": rng.choice((0.25, 0.5))},
            "n_grid": [1, 2, 4],
            "seed": rng.randrange(2**32),
        }
        out.append(Request(f"chaos-check pair {kind['kind']}", config))
    for _ in range(10):
        config = {"experiment": "thm33-check", "count": rng.randint(10, 40),
                  "max_coords": 2, "max_degree": 6, "seed": rng.randrange(2**32)}
        out.append(Request("thm33-check", config))
    for _ in range(10):
        config = {"experiment": "product-formula-check", "count": rng.randint(2, 8),
                  "p_max": 3, "m_max": 4, "seed": rng.randrange(2**32)}
        out.append(Request("product-formula-check", config))
    rng.shuffle(out)
    return out


# Rounds in a traced run: fixed, so that counts repeat exactly; about 10 s each.
TRACE_ROUNDS = {"joint-heavy": 1, "mc-bound": 4, "many-small": 20}

WORKLOADS: dict[str, Callable[[int, int], list[Request]]] = {
    "joint-heavy": joint_heavy,
    "mc-bound": mc_bound,
    "many-small": many_small,
}
