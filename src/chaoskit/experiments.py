"""Experiment runners behind the `chaoskit` command-line tool.

Each experiment consumes a JSON config, runs deterministically for a fixed
seed, writes `report.json` and `report.csv` into the output directory, and
reports pass/fail through the returned `RunResult`.  Each runner walks its
n-grid or instance list in order and returns `(columns, rows, summary,
failures)`; `run` writes the reports, and a run passes when no gate failed.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import moments, montecarlo, sequences, spectral, wiener
from .basis import BasisKind, hermite, make_basis
from .moments import CSV_COLUMNS, GaussianTarget
from .sequences import SequenceSpec
from .spectral import CHAOS_TOL, SpectralFn, product_space

EXPERIMENTS = (
    "chaos-check",
    "fmt-verify",
    "joint-verify",
    "bound-check",
    "thm33-check",
    "product-formula-check",
)

DEFAULT_TOLERANCES = {
    "closed_form": 1e-9,
    "chaos": CHAOS_TOL,
    "thm33": 1e-8,
    "product_formula": 1e-10,
}


class ConfigError(ValueError):
    """Invalid experiment configuration (exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    out: Path
    tolerances: dict
    sequence: SequenceSpec | None = None
    n_grid: tuple[int, ...] = ()
    n_samples: int = 100_000
    vectors: tuple[dict, ...] = ()
    t_axis: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0)
    t_max: float = 3.0
    count: int = 0
    families: tuple[BasisKind, ...] = ()
    max_coords: int = 2
    max_degree: int = 6
    raw: dict = field(default_factory=dict)


@dataclass
class RunResult:
    passed: bool
    failures: list[str]
    report_json: Path
    report_csv: Path


def _require(obj: dict, key: str):
    if key not in obj:
        raise ConfigError(f"config is missing required field {key!r}")
    return obj[key]


def _convert(key: str, value, conv):
    """conv(value), with a value of the wrong type or form reported as a ConfigError."""
    try:
        return conv(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r}") from exc


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _ints(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


def parse_config(obj: dict, seed_override: int | None = None,
                 out_override: str | None = None) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    experiment = _require(obj, "experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}"
        )
    seed = obj.get("seed", 0) if seed_override is None else seed_override
    seed = _convert("seed", seed, int)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")
    out = out_override if out_override is not None else obj.get("out", f"reports/{experiment}")
    out = _convert("out", out, Path)

    tol = dict(DEFAULT_TOLERANCES)
    for name, value in _convert("tolerances", obj.get("tolerances", {}), dict).items():
        tol[name] = _convert(f"tolerances.{name}", value, float)
    for name, value in tol.items():
        if not value > 0:
            raise ConfigError(f"tolerance {name!r} must be positive, got {value}")

    kwargs: dict = {}
    if experiment in ("chaos-check", "fmt-verify", "joint-verify"):
        try:
            spec = SequenceSpec.from_json(_require(obj, "sequence"))
            spec.build(1)  # builds (memoized) the basis every grid point uses
        except (AttributeError, KeyError, TypeError, ValueError, RuntimeError) as exc:
            raise ConfigError(f"bad sequence spec: {exc}") from exc
        grid = _convert("n_grid", _require(obj, "n_grid"), _ints)
        if not grid or any(n < 1 for n in grid):
            raise ConfigError("n_grid must be a nonempty list of integers >= 1")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("n_grid must be strictly increasing")
        if experiment == "fmt-verify" and spec.family != "spread":
            raise ConfigError("fmt-verify needs a spread sequence")
        if experiment == "joint-verify" and spec.family != "pair_mixed":
            raise ConfigError("joint-verify needs a pair_mixed sequence")
        kwargs.update(sequence=spec, n_grid=grid)
    elif experiment == "bound-check":
        t_axis = _convert("t_axis", obj.get("t_axis", (0.25, 0.5, 1.0, 2.0)), _floats)
        t_max = _convert("t_max", obj.get("t_max", 3.0), float)
        if not all(math.isfinite(t) for t in (*t_axis, t_max)):
            raise ConfigError("t_axis entries and t_max must be finite")
        vectors = _convert("vectors", _require(obj, "vectors"), tuple)
        if not vectors:
            raise ConfigError("bound-check needs at least one test vector")
        for v in vectors:
            if not isinstance(v, dict):
                raise ConfigError(f"bad vector spec {v!r}")
            try:
                fs, _ = _test_vector(v)
                for f in fs:  # the covariance the run builds needs finite moments
                    spectral.inner(f, f)
            except KeyError as exc:
                raise ConfigError(f"vector spec {v!r} is missing {exc}") from exc
            except (TypeError, ValueError, RuntimeError) as exc:
                raise ConfigError(f"bad vector spec {v!r}: {exc}") from exc
            if not t_grid(t_axis, len(fs), t_max):
                raise ConfigError(f"vector spec {v!r} has no grid point with ||t|| <= t_max")
        n_samples = _convert("n_samples", obj.get("n_samples", 100_000), int)
        if n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        kwargs.update(vectors=vectors, n_samples=n_samples, t_axis=t_axis, t_max=t_max)
    else:
        count = obj.get("count", 1500 if experiment == "thm33-check" else 200)
        count = _convert("count", count, int)
        if count < 1:
            raise ConfigError("count must be >= 1")
        fams = obj.get(
            "families",
            [{"kind": "hermite", "params": []},
             {"kind": "laguerre", "params": [0.0]},
             {"kind": "jacobi", "params": [2.0, 2.0]}],
        )
        try:
            families = tuple(BasisKind.from_json(k) for k in fams)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad basis kind: {exc}") from exc
        max_coords = _convert("max_coords", obj.get("max_coords", 2), int)
        max_degree = _convert("max_degree", obj.get("max_degree", 6), int)
        if experiment == "product-formula-check":
            max_degree = _convert("p_max", obj.get("p_max", 3), int)
            max_coords = _convert("m_max", obj.get("m_max", 4), int)
        if max_coords < 1 or max_degree < 1:
            raise ConfigError("dimension and degree limits must be >= 1")
        if experiment == "product-formula-check":
            try:
                wiener.check_product_formula_size(max_degree, max_coords)
            except ValueError as exc:
                raise ConfigError(f"p_max {max_degree} with m_max {max_coords}: {exc}") from exc
        # Build (memoized) the largest basis of each family the run draws from;
        # product-formula-check puts I_p on Hermite coordinates of degree 2p.
        bases = ([(kind, max_degree) for kind in families] if experiment == "thm33-check"
                 else [(hermite(), 2 * max_degree)])
        for kind, degree in bases:
            try:
                make_basis(kind, degree)
            except (RuntimeError, ValueError) as exc:
                raise ConfigError(f"cannot build the {kind.label()} basis: {exc}") from exc
        kwargs.update(
            count=count, families=families,
            max_coords=max_coords, max_degree=max_degree,
        )

    return ExperimentConfig(
        experiment=experiment, seed=seed, out=out, tolerances=tol, raw=dict(obj),
        **kwargs,
    )


def load_config(path: str | Path, seed_override: int | None = None,
                out_override: str | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(obj, seed_override, out_override)


# -- report assembly ---------------------------------------------------------


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _write_reports(cfg: ExperimentConfig, columns: list[str], rows: list[list],
                   summary: dict, failures: list[str]) -> RunResult:
    passed = not failures
    cfg.out.mkdir(parents=True, exist_ok=True)
    jpath = cfg.out / "report.json"
    cpath = cfg.out / "report.csv"
    payload = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "config": cfg.raw,
        "columns": columns,
        "rows": rows,
        "summary": summary,
        "passed": passed,
        "failures": failures,
    }
    with open(jpath, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt_cell(v) for v in row) for row in rows)
    cpath.write_text("\n".join(lines) + "\n")
    return RunResult(passed, failures, jpath, cpath)


# -- individual experiments --------------------------------------------------


def _run_chaos_check(cfg: ExperimentConfig):
    spec = cfg.sequence
    tol = cfg.tolerances["chaos"]
    columns = ["n", "component", "eigenvalue", "chaotic", "n_offending", "max_mass"]
    rows: list[list] = []
    failures: list[str] = []
    for n in cfg.n_grid:
        built = spec.build(n)
        fs = (built,) if isinstance(built, SpectralFn) else tuple(built)
        verdict = spectral.is_chaotic_vector(fs, tol)
        for i, j, chk in verdict.pairs:
            if i == j:
                rows.append([
                    n, f"F{i + 1}" if len(fs) > 1 else "F", chk.eigenvalue,
                    chk.ok, len(chk.offenders),
                    max((m for _, m in chk.offenders), default=0.0),
                ])
        if len(fs) > 1:
            masses = [m for _, _, chk in verdict.pairs for _, m in chk.offenders]
            rows.append([n, "vector", math.nan, verdict.ok, len(masses),
                         max(masses, default=0.0)])
        if not verdict.ok:
            failures.append(f"chaos-check: not chaotic at n={n}")
    summary = {"tol": tol, "all_chaotic": not failures}
    return columns, rows, summary, failures


def _run_fmt_verify(cfg: ExperimentConfig):
    spec = cfg.sequence
    tol = cfg.tolerances["closed_form"]
    ref = moments.fmt_report(spec.build(1))  # Q_p on a single coordinate
    columns = [
        "n", "m2", "m4", "m4_expected", "m4_abs_err",
        "var_gamma", "var_gamma_expected", "var_gamma_abs_err",
        "chaotic", "centered",
    ]
    rows: list[list] = []
    failures: list[str] = []
    for n in cfg.n_grid:
        rep = moments.fmt_report(spec.build(n), cfg.tolerances["chaos"])
        m4_exp = 3.0 + (ref.m4 - 3.0) / n
        vg_exp = ref.var_gamma / n
        m4_err = abs(rep.m4 - m4_exp)
        vg_err = abs(rep.var_gamma - vg_exp)
        rows.append([
            n, rep.m2, rep.m4, m4_exp, m4_err,
            rep.var_gamma, vg_exp, vg_err, rep.chaotic, rep.centered,
        ])
        if m4_err > tol:
            failures.append(f"fmt-verify: |m4 - expected| = {m4_err:.3e} at n={n}")
        if vg_err > tol:
            failures.append(f"fmt-verify: |var_gamma - expected| = {vg_err:.3e} at n={n}")
        if not rep.chaotic:
            failures.append(f"fmt-verify: sequence element not chaotic at n={n}")
        if not rep.centered:
            failures.append(f"fmt-verify: sequence element not centered at n={n}")
    summary = {
        "single_coordinate_m4": ref.m4,
        "single_coordinate_var_gamma": ref.var_gamma,
        "m4_sup": max(row[2] for row in rows),
    }
    return columns, rows, summary, failures


def _run_joint_verify(cfg: ExperimentConfig):
    spec = cfg.sequence
    tol = cfg.tolerances["closed_form"]
    chaos_tol = cfg.tolerances["chaos"]
    # The mixed moment has a closed form only for equal levels.
    g_m4 = (moments.moment4(sequences.spread(spec.kind, spec.p1, 1))
            if spec.p1 == spec.p2 else None)
    columns = ["n"] + list(CSV_COLUMNS)
    rows: list[list] = []
    per_n = []
    failures: list[str] = []
    for n in cfg.n_grid:
        f1, f2 = spec.build(n)
        cov = moments._covariance((f1, f2))
        rep = moments.joint_report((f1, f2), GaussianTarget(cov), chaos_tol)
        rho_n = float(cov[0, 1])
        m22_err = None
        if g_m4 is not None:
            # int F1^2 F2^2 does not see the sign of the shared block.
            m22_exp = 1.0 + 2.0 * rho_n**2 + abs(rho_n) * (g_m4 - 3.0) / n
            m22_err = abs(rep.mixed22[0, 1] - m22_exp)
        gap = np.abs(rep.mixed22 - rep.isserlis)
        per_n.append({
            "n": n,
            "rho_requested": spec.rho,
            "rho_realized": rho_n,
            "rho_achieved": bool(abs(rho_n - spec.rho) <= 1e-12),
            "prop31": rep.prop31,
            "r_max": float(np.abs(rep.r_matrix).max()),
            "mixed22_gap_max": float(gap.max()),
            "mixed22_closed_form_err": m22_err,
            "chaotic_vector": rep.chaotic_vector,
        })
        rows.extend([n] + row for row in rep.csv_rows())
        if not rep.chaotic_vector:
            failures.append(f"joint-verify: vector not jointly chaotic at n={n}")
        if m22_err is not None and m22_err > tol:
            failures.append(
                f"joint-verify: mixed22 closed-form error {m22_err:.3e} at n={n}"
            )
    for key in ("r_max", "prop31", "mixed22_gap_max"):
        vals = [info[key] for info in per_n]
        if any(b >= a for a, b in zip(vals, vals[1:])):
            failures.append(f"joint-verify: {key} not strictly decreasing over n_grid")
    return columns, rows, {"per_n": per_n}, failures


def _test_vector(v: dict) -> tuple[tuple[SpectralFn, ...], str]:
    """The components and name of a config's test vector; raises as
    `build_test_vector` does."""
    kind = BasisKind.from_json(v.get("kind", {"kind": "hermite"}))
    if v.get("type") == "eigenfunction":
        p = int(v["degree"])
        fs: tuple[SpectralFn, ...] = (
            sequences.spread(kind, p, 1).scale(float(v.get("scale", 1.0))),
        )
        name = v.get("name", f"{kind.label()}-Q{p}")
    elif v.get("type") == "pair_mixed":
        fs = sequences.pair_mixed(int(v["p1"]), int(v["p2"]), float(v.get("rho", 0.0)),
                                  int(v["n"]), kind=kind)
        name = v.get("name", f"pair({v['p1']},{v['p2']},{v.get('rho', 0.0)},{v['n']})")
    else:
        raise ValueError(f"unknown test-vector type {v.get('type')!r}")
    return fs, str(name)


def build_test_vector(v: dict) -> tuple[tuple[SpectralFn, ...], GaussianTarget, str]:
    """Construct a named test vector and its exact covariance from a config entry.

    A missing field raises KeyError, a malformed or out-of-range one ValueError
    or TypeError (from the constructors), a refused basis RuntimeError.
    """
    fs, name = _test_vector(v)
    return fs, GaussianTarget(moments._covariance(fs)), name


def t_grid(axis: tuple[float, ...], dim: int, t_max: float) -> list[np.ndarray]:
    """Cartesian grid axis^dim restricted to the ball ||t|| <= t_max."""
    grids = [np.array(t) for t in itertools.product(axis, repeat=dim)]
    return [t for t in grids if float(np.linalg.norm(t)) <= t_max]


def _run_bound_check(cfg: ExperimentConfig):
    columns = ["vector", "t", "t_norm", "gap", "stderr", "prop31", "rhs", "pass"]
    rows: list[list] = []
    failures: list[str] = []
    vectors = [build_test_vector(v) for v in cfg.vectors]
    grids = [t_grid(cfg.t_axis, len(fs), cfg.t_max) for fs, _, _ in vectors]
    gaps = montecarlo.sampled_cf_gaps(
        [(fs, target, ts) for (fs, target, _), ts in zip(vectors, grids)],
        cfg.n_samples, cfg.seed)
    for (fs, target, name), ts, vector_gaps in zip(vectors, grids, gaps):
        bound = moments.prop31_bound(fs, target)
        for t, (gap, stderr) in zip(ts, vector_gaps):
            tn = float(np.linalg.norm(t))
            rhs = tn * tn * bound + 3.0 * stderr
            ok = gap <= rhs
            rows.append([
                name, ";".join(f"{x:g}" for x in t), tn, gap, stderr, bound, rhs, ok,
            ])
            if not ok:
                failures.append(
                    f"bound-check: vector {name}, t = {t.tolist()}: "
                    f"gap {gap:.6g} > bound {rhs:.6g}"
                )
    summary = {"n_samples": cfg.n_samples, "n_rows": len(rows)}
    return columns, rows, summary, failures


def random_span_function(space, rng: np.random.Generator,
                         max_terms: int = 6) -> SpectralFn:
    """Random sparse function over the space's multi-indices (test helper)."""
    n_terms = int(rng.integers(1, max_terms + 1))
    coeffs = {}
    for _ in range(n_terms):
        alpha = tuple(
            int(rng.integers(0, b.max_degree + 1)) for b in space.coords
        )
        coeffs[alpha] = float(rng.uniform(-1.0, 1.0))
    return SpectralFn(space, coeffs)


def _run_thm33_check(cfg: ExperimentConfig):
    tol = cfg.tolerances["thm33"]
    columns = [
        "instance", "family", "dim", "support", "lambda_max", "eta",
        "lhs", "rhs", "margin", "violation",
    ]
    rng = np.random.default_rng(cfg.seed)
    spaces = {}
    rows: list[list] = []
    failures: list[str] = []
    for i in range(cfg.count):
        kind = cfg.families[i % len(cfg.families)]
        d = int(rng.integers(1, cfg.max_coords + 1))
        key = (kind, d)
        if key not in spaces:
            spaces[key] = product_space(kind, cfg.max_degree, d)
        space = spaces[key]
        f = random_span_function(space, rng)
        lam_max = max(space.eigenvalue(a) for a in f.support())
        eta = lam_max if i % 5 == 0 else lam_max * (1.0 + float(rng.uniform(0, 1)))
        lhs, rhs = moments.thm33_sides(f, eta)
        scale = max(1.0, abs(lhs), abs(rhs))
        bad = lhs > rhs + tol * scale
        rows.append([
            i, kind.label(), d, len(f.coeffs), lam_max, eta, lhs, rhs,
            rhs - lhs, bad,
        ])
        if bad:
            failures.append(
                f"thm33-check: instance {i} ({kind.label()}): "
                f"lhs {lhs:.6g} > rhs {rhs:.6g}"
            )
    summary = {"count": cfg.count, "violations": len(failures)}
    return columns, rows, summary, failures


def random_sym_tensor(dim: int, order: int, rng: np.random.Generator) -> wiener.SymTensor:
    """Dense random symmetric tensor with entries uniform in [-1, 1]."""
    entries = {}
    for key in itertools.combinations_with_replacement(range(dim), order):
        entries[key] = float(rng.uniform(-1.0, 1.0))
    return wiener.SymTensor(dim, order, entries)


def _run_product_formula_check(cfg: ExperimentConfig):
    tol = cfg.tolerances["product_formula"]
    columns = ["instance", "p", "m", "lhs", "rhs", "abs_err", "allowed", "pass"]
    rng = np.random.default_rng(cfg.seed)
    rows: list[list] = []
    failures: list[str] = []
    p_max, m_max = cfg.max_degree, cfg.max_coords
    for i in range(cfg.count):
        p = int(rng.integers(1, p_max + 1))
        m = int(rng.integers(1, m_max + 1))
        f = random_sym_tensor(m, p, rng)
        g = random_sym_tensor(m, p, rng)
        lhs, rhs = wiener.product_formula_check(f, g)
        err = abs(lhs - rhs)
        allowed = tol * (1.0 + abs(lhs))
        ok = err <= allowed
        rows.append([i, p, m, lhs, rhs, err, allowed, ok])
        if not ok:
            failures.append(
                f"product-formula-check: instance {i} (p={p}, m={m}): "
                f"|lhs - rhs| = {err:.3e} > {allowed:.3e}"
            )
    summary = {"count": cfg.count, "violations": len(failures)}
    return columns, rows, summary, failures


_RUNNERS = {
    "chaos-check": _run_chaos_check,
    "fmt-verify": _run_fmt_verify,
    "joint-verify": _run_joint_verify,
    "bound-check": _run_bound_check,
    "thm33-check": _run_thm33_check,
    "product-formula-check": _run_product_formula_check,
}


def run(cfg: ExperimentConfig) -> RunResult:
    """Run one experiment; writes report.json / report.csv under cfg.out."""
    columns, rows, summary, failures = _RUNNERS[cfg.experiment](cfg)
    return _write_reports(cfg, columns, rows, summary, failures)
