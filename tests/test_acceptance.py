"""Acceptance criteria for the package, one test per criterion.

Each test prints a PASS/FAIL line (visible with `pytest -s`).  Criterion 5's
0.15 threshold at n = 32 is exactly derivable as unattainable for this
sequence family (the three gated quantities are 0.375, 0.433 and 0.375 at
n = 32); the check is kept as stated rather than recalibrated, so
`test_criterion_5b_threshold_at_n32` fails by design.  Everything else passes.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

import chaoskit as ck
from chaoskit.cli import main as cli_main
from chaoskit.experiments import build_test_vector, random_sym_tensor, t_grid

SEED = 20260809
GRID_1_12 = range(1, 13)


def _criterion(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: {status}{suffix}")


# -- criterion 1: fourth-moment convergence -----------------------------------


def test_criterion_1_fourth_moment_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for n in GRID_1_12:
        f = ck.spread(ck.hermite(), 2, n)
        worst = max(worst, abs(ck.moment4(f) - (3.0 + 12.0 / n)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _criterion("1 fourth-moment m4 = 3 + 12/n (n = 1..12)", ok,
               f"max |err| = {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


# -- criterion 2: Var Gamma decay ----------------------------------------------


def test_criterion_2_var_gamma_closed_form():
    worst = 0.0
    for n in GRID_1_12:
        f = ck.spread(ck.hermite(), 2, n)
        worst = max(worst, abs(ck.var_gamma(f, f) - 8.0 / n))
    ok = worst <= 1e-9
    _criterion("2 Var Gamma = 8/n (n = 1..12)", ok, f"max |err| = {worst:.2e}")
    assert ok


# -- criterion 3: spectral inequality ------------------------------------------


def test_criterion_3_spectral_inequality_randomized():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    spaces = [
        ck.product_space(ck.hermite(), 6, 2),
        ck.product_space(ck.laguerre(0.0), 6, 2),
        ck.product_space(ck.jacobi(2.0, 2.0), 6, 2),
    ]
    violations = 0
    count = 0
    while count < 1500:
        space = spaces[count % 3]
        coeffs = {}
        for _ in range(int(rng.integers(1, 7))):
            alpha = tuple(int(rng.integers(0, 7)) for _ in range(2))
            coeffs[alpha] = float(rng.uniform(-1, 1))
        f = ck.SpectralFn(space, coeffs)
        if f.is_zero():
            continue
        lam_max = max(space.eigenvalue(a) for a in f.support())
        eta = lam_max if count % 5 == 0 else lam_max * (1.0 + float(rng.uniform(0, 1)))
        lhs, rhs = ck.thm33_sides(f, eta)
        if lhs > rhs + 1e-8 * max(1.0, abs(lhs), abs(rhs)):
            violations += 1
        count += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    _criterion("3 spectral inequality, 1500 randomized functions", ok,
               f"violations = {violations}, {elapsed:.2f}s")
    assert violations == 0
    assert elapsed < 60.0


# -- criterion 4: characteristic-function bound ---------------------------------


ACCEPTANCE_VECTORS = [
    {"name": "q1", "type": "eigenfunction",
     "kind": {"kind": "hermite", "params": []}, "degree": 1, "scale": 1.0},
    {"name": "q2-normalized", "type": "eigenfunction",
     "kind": {"kind": "hermite", "params": []}, "degree": 2, "scale": 2 ** -0.5},
    {"name": "pair-rho0-n2", "type": "pair_mixed", "p1": 2, "p2": 2,
     "rho": 0.0, "n": 2},
    {"name": "pair-rho0-n8", "type": "pair_mixed", "p1": 2, "p2": 2,
     "rho": 0.0, "n": 8},
    {"name": "pair-rho5-n2", "type": "pair_mixed", "p1": 2, "p2": 2,
     "rho": 0.5, "n": 2},
    {"name": "pair-rho5-n8", "type": "pair_mixed", "p1": 2, "p2": 2,
     "rho": 0.5, "n": 8},
]


def test_criterion_4_cf_gap_within_bound():
    n_samples = 100_000
    failures = []
    for vec in ACCEPTANCE_VECTORS:
        fs, target, name = build_test_vector(vec)
        bound = ck.prop31_bound(fs, target)
        batch = ck.sample(fs[0].space, n_samples, SEED)
        for t in t_grid((0.25, 0.5, 1.0, 2.0), len(fs), 3.0):
            gap, stderr = ck.cf_gap(fs, target, t, batch)
            rhs = float(t @ t) * bound + 3.0 * stderr
            if gap > rhs:
                failures.append((name, t.tolist(), gap, rhs))
    ok = not failures
    _criterion("4 CF gap <= ||t||^2 prop31 + 3 stderr (6 vectors, 1e5 samples)",
               ok, f"{len(failures)} violations")
    assert not failures, failures


# -- criterion 5: joint convergence diagnostics ----------------------------------


def _joint_quantities(n: int):
    f1, f2 = ck.pair_mixed(2, 2, 0.5, n)
    rho_n = ck.inner(f1, f2)
    rep = ck.joint_report((f1, f2))
    r_max = float(np.abs(rep.r_matrix).max())
    gap_max = float(np.abs(rep.mixed22 - rep.isserlis).max())
    return rho_n, rep, r_max, gap_max


def test_criterion_5a_joint_monotone_decay_and_closed_form():
    grid = (2, 4, 8, 16, 32)
    r_seq, p_seq, g_seq = [], [], []
    worst_cf = 0.0
    for n in grid:
        rho_n, rep, r_max, gap_max = _joint_quantities(n)
        expected = 1.0 + 2.0 * rho_n**2 + rho_n * 12.0 / n
        worst_cf = max(worst_cf, abs(rep.mixed22[0, 1] - expected))
        r_seq.append(r_max)
        p_seq.append(rep.prop31)
        g_seq.append(gap_max)
    monotone = all(
        all(b < a for a, b in zip(seq, seq[1:])) for seq in (r_seq, p_seq, g_seq)
    )
    ok = monotone and worst_cf <= 1e-9
    _criterion("5a joint diagnostics decrease monotonically; mixed22 matches "
               "1 + 2 rho_n^2 + 12 rho_n / n to 1e-9", ok,
               f"closed-form err = {worst_cf:.2e}")
    assert monotone
    assert worst_cf <= 1e-9


def test_criterion_5b_threshold_at_n32():
    """Gated threshold: r_ij, prop31_bound and |mixed22 - isserlis| below 0.15
    at n = 32.

    This fails by design: for this family the three quantities at n = 32 are
    exactly 12/n = 0.375 (diagonal r and mixed-moment gap; 12 rho_n / n =
    0.1875 off-diagonal) and 2 sqrt((1 + rho_n)/n) = 0.433 (prop31), all above
    0.15.  The off-diagonal quantities first drop below 0.15 at n = 40 and
    prop31 only near n = 270, so no reading of the grid reaches the stated
    threshold.  See README "Known-red acceptance check" for the derivation.
    """
    rho_n, rep, r_max, gap_max = _joint_quantities(32)
    ok = r_max < 0.15 and rep.prop31 < 0.15 and gap_max < 0.15
    _criterion("5b joint diagnostics below 0.15 at n = 32", ok,
               f"r_max = {r_max:.4f}, prop31 = {rep.prop31:.4f}, "
               f"gap_max = {gap_max:.4f}")
    assert ok, (
        "threshold 0.15 unattainable at n = 32: "
        f"max |r_ij| = {r_max:.4f} (= 12/32), "
        f"prop31_bound = {rep.prop31:.4f} (= 2 sqrt(1.5/32)), "
        f"max |mixed22 - isserlis| = {gap_max:.4f} (= 12/32); "
        "the quantities decay as O(1/n) and O(1/sqrt(n)) per the exact closed "
        "forms verified in criterion 5a"
    )


# -- criterion 6: product-formula identity ---------------------------------------


def test_criterion_6_product_formula_200_instances():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        p = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        f = random_sym_tensor(m, p, rng)
        g = random_sym_tensor(m, p, rng)
        lhs, rhs = ck.product_formula_check(f, g)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    _criterion("6 product-formula identity on 200 random kernels", ok,
               f"max rel err = {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


# -- criterion 7: calculus invariants --------------------------------------------


def _random_low_degree(space, rng, cap):
    coeffs = {}
    for _ in range(int(rng.integers(1, 5))):
        alpha = tuple(int(rng.integers(0, cap + 1)) for _ in space.coords)
        if sum(alpha) <= cap:
            coeffs[alpha] = float(rng.uniform(-1, 1))
    coeffs.setdefault((1,) + (0,) * (space.dim - 1), 0.3)
    return ck.SpectralFn(space, coeffs)


def test_criterion_7_calculus_invariants():
    rng = np.random.default_rng(SEED)
    spaces = [
        ck.product_space(ck.hermite(), 24, 2),
        ck.product_space(ck.laguerre(0.0), 24, 1),
        ck.product_space(ck.jacobi(2.0, 2.0), 24, 1),
    ]
    worst_ibp = 0.0
    worst_deriv = 0.0
    for i in range(500):
        space = spaces[i % 3]
        f = _random_low_degree(space, rng, 2)
        g = _random_low_degree(space, rng, 2)

        # integration by parts: int Gamma(F,G) = -int F LG
        lhs = ck.gamma(f, g).integral()
        rhs = -ck.inner(f, ck.apply_L(g))
        scale = 1.0 + f.norm() * g.norm()
        worst_ibp = max(worst_ibp, abs(lhs - rhs) / scale)

        # derivation property with a random quartic phi
        c = rng.uniform(-1, 1, 5)
        powers = [space.unit(), f]
        for _ in range(3):
            powers.append(ck.multiply(powers[-1], f))
        phi = sum((powers[k].scale(float(c[k])) for k in range(5)),
                  space.unit().scale(0.0))
        dphi = sum((powers[k - 1].scale(float(k * c[k])) for k in range(1, 5)),
                   space.unit().scale(0.0))
        left = ck.gamma(phi, g)
        right = ck.multiply(dphi, ck.gamma(f, g))
        dscale = 1.0 + left.norm() + right.norm()
        worst_deriv = max(worst_deriv, (left - right).norm() / dscale)

    ok_props = worst_ibp <= 1e-8 and worst_deriv <= 1e-8

    # L L^-1 F = F - int F dmu, exact coefficient map: identical support and
    # values; division then multiplication by one non-dyadic eigenvalue is two
    # correctly rounded operations, so a coefficient may move by one ulp.
    ok_linv = True
    for i in range(200):
        space = spaces[i % 3]
        f = _random_low_degree(space, rng, 6)
        back = ck.apply_L(ck.apply_Linv(f))
        expect = {a: v for a, v in f.items_sorted() if space.eigenvalue(a) != 0.0}
        if set(back.coeffs) != set(expect):
            ok_linv = False
            break
        for a, v in expect.items():
            if abs(back.coeffs[a] - v) > math.ulp(v):
                ok_linv = False
                break
    # for dyadic eigenvalues the round trip must be bitwise
    hs = ck.product_space(ck.hermite(), 8, 2)
    for _ in range(100):
        coeffs = {a: float(rng.uniform(-1, 1))
                  for a in [(1, 0), (0, 2), (2, 2), (4, 4), (8, 0)]}
        f = ck.SpectralFn(hs, coeffs)
        if ck.apply_L(ck.apply_Linv(f)).coeffs != f.coeffs:
            ok_linv = False
            break

    ok = ok_props and ok_linv
    _criterion("7 integration by parts / derivation (500 instances) and "
               "L Linv mean removal", ok,
               f"ibp = {worst_ibp:.2e}, derivation = {worst_deriv:.2e}")
    assert worst_ibp <= 1e-8
    assert worst_deriv <= 1e-8
    assert ok_linv


# -- criterion 8: determinism ------------------------------------------------------


def test_criterion_8_reports_byte_identical(tmp_path):
    configs = [
        {
            "experiment": "fmt-verify",
            "sequence": {"family": "spread",
                         "kind": {"kind": "hermite", "params": []}, "p": 2},
            "n_grid": list(GRID_1_12),
            "seed": SEED,
        },
        {
            "experiment": "bound-check",
            "vectors": ACCEPTANCE_VECTORS[:2],
            "t_axis": [0.5, 1.0],
            "n_samples": 50_000,
            "seed": SEED,
        },
    ]
    ok = True
    for idx, obj in enumerate(configs):
        cfg = tmp_path / f"cfg{idx}.json"
        cfg.write_text(json.dumps(obj))
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"{idx}-{run}"
            code = cli_main([obj["experiment"], "--config", str(cfg),
                             "--out", str(out)])
            assert code == 0
            outs.append((out / "report.csv").read_bytes())
        ok = ok and outs[0] == outs[1]
    _criterion("8 byte-identical report.csv for fixed seed", ok)
    assert ok


@pytest.fixture(scope="session", autouse=True)
def _final_banner():
    yield
    print("\nacceptance criteria reported above (one line each; run with -s)")
