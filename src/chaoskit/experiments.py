"""Experiment runners behind the `chaoskit` command-line tool.

Each experiment consumes a JSON config, runs deterministically for a fixed
seed, writes `report.json` and `report.csv` into the output directory, and
reports pass/fail through the returned `RunResult`.  Each runner walks its
n-grid or instance list in order and returns `(columns, rows, summary,
failures)`; `run` writes the reports, and a run passes when no gate failed.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from . import moments, montecarlo, sequences, spectral, wiener
from .basis import BasisKind, as_int, as_real, hermite, jacobi, laguerre, make_basis
from .moments import CSV_COLUMNS, GaussianTarget
from .sequences import SequenceSpec
from .spectral import CHAOS_TOL, SpectralFn, product_space

# Gate tolerances.  Every quantity gated is exact coefficient algebra, so each
# tolerance absorbs double-precision rounding only.
CLOSED_FORM_TOL = 1e-9
THM33_TOL = 1e-8
PRODUCT_FORMULA_TOL = 1e-10


class ConfigError(ValueError):
    """Invalid experiment configuration (exit code 2)."""


# -- config fields -------------------------------------------------------------


def _require(obj: dict, key: str):
    if key not in obj:
        raise ConfigError(f"config is missing required field {key!r}")
    return obj[key]


def _convert(what: str, value, conv):
    """conv(value), with a missing field or a value of the wrong type or form
    reported as a ConfigError about `what`."""
    try:
        return conv(value)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{what} is missing {exc}") from exc
    except (ArithmeticError, AttributeError, TypeError, ValueError, RuntimeError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _object(obj, where: str, keys) -> dict:
    """obj, refused unless it is a JSON object whose every key is in `keys`."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    unread = [key for key in obj if key not in keys]
    if unread:
        raise ConfigError(f"{where} has unknown key(s) {unread}; it reads {list(keys)}")
    return obj


def _checked(conv, ok, message: str):
    """conv, refusing a result for which ok(result) is false."""
    def convert(value):
        out = conv(value)
        if not ok(out):
            raise ValueError(f"{message}, got {out!r}")
        return out
    return convert


def _kind(obj) -> BasisKind:
    return BasisKind.from_json(_object(obj, "basis kind", ("kind", "params")))


def _sequence(obj, where: str = "sequence", family: str = "family",
              extra: tuple = ()) -> SequenceSpec:
    """The sequence spec of obj, its family named under the key `family`; a key
    that neither the spec nor `extra` names is refused."""
    spec = SequenceSpec.from_json({**obj, "family": obj.get(family)})
    _object(obj, where, (family, "kind", *spec.params, *extra))
    _object(obj.get("kind", {}), "basis kind", spec.kind.to_json())
    return spec


_at_least_one = _checked(as_int, lambda n: n >= 1, "must be >= 1")
_finite = _checked(as_real, math.isfinite, "must be finite")
_t_axis = _checked(lambda xs: tuple(map(_finite, xs)), bool, "must not be empty")
_seed = _checked(as_int, lambda s: 0 <= s < 2**64, "must be an unsigned 64-bit integer")
_n_grid = _checked(lambda ns: tuple(map(as_int, ns)),
                   lambda g: g and g[0] >= 1 and all(a < b for a, b in zip(g, g[1:])),
                   "must be a nonempty, strictly increasing list of integers >= 1")
_families = _checked(lambda objs: tuple(map(_kind, objs)), bool, "must not be empty")
_vectors = _checked(
    lambda specs: tuple(_convert(f"vector spec {v!r}", v, build_test_vector) for v in specs),
    bool, "must not be empty")


def _field(conv, default=MISSING):
    """A field read from the config key of its name; required without a default."""
    return field(default=default, metadata={"conv": conv})


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """The keys every experiment reads.  A subclass declares the fields of its
    experiments, each with its conversion (which checks the value) and default;
    any other key, also in a sequence, test vector or basis kind, is refused.
    Every number, nested ones too, is read by `as_int` or `as_real`."""
    experiment: str
    seed: int
    out: Path
    raw: dict


@dataclass(frozen=True, kw_only=True)
class SequenceConfig(ExperimentConfig):
    """chaos-check, fmt-verify and joint-verify: a sequence over an n grid."""
    sequence: SequenceSpec = _field(_sequence)
    n_grid: tuple[int, ...] = _field(_n_grid)

    def __post_init__(self) -> None:
        family = {"fmt-verify": "spread", "joint-verify": "pair_mixed"}.get(self.experiment)
        if family not in (None, self.sequence.family):
            raise ConfigError(f"{self.experiment} needs a {family} sequence")
        _convert("'sequence'", 1, self.sequence.build)  # builds (memoized) the grid's basis


@dataclass(frozen=True, kw_only=True)
class BoundCheckConfig(ExperimentConfig):
    vectors: tuple[tuple[tuple[SpectralFn, ...], GaussianTarget, str], ...] = _field(_vectors)
    n_samples: int = _field(_at_least_one, 100_000)
    t_axis: tuple[float, ...] = _field(_t_axis, (0.25, 0.5, 1.0, 2.0))
    t_max: float = _field(_finite, 3.0)

    def __post_init__(self) -> None:
        for fs, _, name in self.vectors:
            if not t_grid(self.t_axis, len(fs), self.t_max):
                raise ConfigError(f"vector {name!r} has no grid point with ||t|| <= t_max")


@dataclass(frozen=True, kw_only=True)
class Thm33Config(ExperimentConfig):
    count: int = _field(_at_least_one, 1500)
    families: tuple[BasisKind, ...] = _field(
        _families, (hermite(), laguerre(0.0), jacobi(2.0, 2.0)))
    max_coords: int = _field(_at_least_one, 2)
    max_degree: int = _field(_at_least_one, 6)

    def __post_init__(self) -> None:
        for kind in self.families:  # build (memoized) every basis the run draws from
            _convert(f"{kind.label()} basis", self.max_degree, partial(make_basis, kind))


@dataclass(frozen=True, kw_only=True)
class ProductFormulaConfig(ExperimentConfig):
    count: int = _field(_at_least_one, 200)
    p_max: int = _field(_at_least_one, 3)
    m_max: int = _field(_at_least_one, 4)

    def __post_init__(self) -> None:
        _convert(f"p_max {self.p_max} with m_max {self.m_max}", self.m_max,
                 partial(wiener.check_product_formula_size, self.p_max))
        make_basis(hermite(), 2 * self.p_max)  # I_p's coordinates; small inside the limit


@dataclass
class RunResult:
    passed: bool
    failures: list[str]
    report_json: Path
    report_csv: Path


def parse_config(obj: dict, seed_override: int | None = None,
                 out_override: str | None = None) -> ExperimentConfig:
    """The run a JSON config asks for; a key the experiment does not read is refused."""
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    experiment = _require(obj, "experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}, not one of {EXPERIMENTS}")
    cls, _ = _EXPERIMENTS[experiment]
    options = {f.name: f for f in fields(cls) if "conv" in f.metadata}
    _object(obj, "config", ("experiment", "seed", "out", *options))
    seed = obj.get("seed", 0) if seed_override is None else seed_override
    out = obj.get("out", f"reports/{experiment}") if out_override is None else out_override
    values = {name: _convert(repr(name), _require(obj, name), f.metadata["conv"])
              for name, f in options.items() if name in obj or f.default is MISSING}
    return cls(experiment=experiment, raw=dict(obj), seed=_convert("'seed'", seed, _seed),
               out=_convert("'out'", out, Path), **values)


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
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _overwrite(path: Path, text: str) -> None:
    """Write text over the file's bytes, then cut it to length, without
    truncating an existing report first.  A completed call leaves the bytes and
    created-file mode of open(path, "w"); one cut short between the write and
    the cut leaves the old file's tail after the new text."""
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    with open(os.open(path, flags, 0o666), "w") as fh:
        fh.write(text)
        fh.truncate()


def _write_reports(cfg: ExperimentConfig, columns: list[str], rows: list[list],
                   summary: dict, failures: list[str]) -> RunResult:
    passed = not failures
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
    _overwrite(jpath, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    buf = io.StringIO()  # csv quotes a cell with a comma, such as jacobi(2,2)
    csv.writer(buf, lineterminator="\n").writerows(
        [columns, *([_fmt_cell(v) for v in row] for row in rows)])
    _overwrite(cpath, buf.getvalue())
    return RunResult(passed, failures, jpath, cpath)


# -- individual experiments --------------------------------------------------


def _run_chaos_check(cfg: ExperimentConfig):
    spec = cfg.sequence
    columns = ["n", "component", "eigenvalue", "chaotic", "n_offending", "max_mass"]
    rows: list[list] = []
    failures: list[str] = []
    for n in cfg.n_grid:
        fs = spec.build(n)
        verdict = spectral.is_chaotic_vector(fs)
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
    summary = {"tol": CHAOS_TOL, "all_chaotic": not failures}
    return columns, rows, summary, failures


def _run_fmt_verify(cfg: ExperimentConfig):
    spec = cfg.sequence
    ref = moments.fmt_report(*spec.build(1))  # Q_p on a single coordinate
    columns = [
        "n", "m2", "m4", "m4_expected", "m4_abs_err",
        "var_gamma", "var_gamma_expected", "var_gamma_abs_err",
        "chaotic", "centered",
    ]
    rows: list[list] = []
    failures: list[str] = []
    for n in cfg.n_grid:
        rep = moments.fmt_report(*spec.build(n))
        m4_exp = 3.0 + (ref.m4 - 3.0) / n
        vg_exp = ref.var_gamma / n
        m4_err = abs(rep.m4 - m4_exp)
        vg_err = abs(rep.var_gamma - vg_exp)
        rows.append([
            n, rep.m2, rep.m4, m4_exp, m4_err,
            rep.var_gamma, vg_exp, vg_err, rep.chaotic, rep.centered,
        ])
        if m4_err > CLOSED_FORM_TOL:
            failures.append(f"fmt-verify: |m4 - expected| = {m4_err:.3e} at n={n}")
        if vg_err > CLOSED_FORM_TOL:
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
    p1, p2, rho = (spec.params[key] for key in ("p1", "p2", "rho"))
    # The mixed moment has a closed form only for equal levels.
    g_m4 = moments.moment4(sequences.spread(spec.kind, p1, 1)) if p1 == p2 else None
    columns = ["n"] + list(CSV_COLUMNS)
    rows: list[list] = []
    per_n = []
    failures: list[str] = []
    for n in cfg.n_grid:
        fs = spec.build(n)
        rep = moments.joint_report(fs, moments.exact_target(fs))
        rho_n = float(rep.cov[0, 1])
        m22_err = None
        if g_m4 is not None:
            # int F1^2 F2^2 does not see the sign of the shared block.
            m22_exp = 1.0 + 2.0 * rho_n**2 + abs(rho_n) * (g_m4 - 3.0) / n
            m22_err = abs(rep.mixed22[0, 1] - m22_exp)
        gap = np.abs(rep.mixed22 - rep.isserlis)
        per_n.append({
            "n": n,
            "rho_requested": rho,
            "rho_realized": rho_n,
            "rho_achieved": bool(abs(rho_n - rho) <= 1e-12),
            "prop31": rep.prop31,
            "r_max": float(np.abs(rep.r_matrix).max()),
            "mixed22_gap_max": float(gap.max()),
            "mixed22_closed_form_err": m22_err,
            "chaotic_vector": rep.chaotic_vector,
        })
        rows.extend([n] + row for row in rep.csv_rows())
        if not rep.chaotic_vector:
            failures.append(f"joint-verify: vector not jointly chaotic at n={n}")
        if m22_err is not None and m22_err > CLOSED_FORM_TOL:
            failures.append(
                f"joint-verify: mixed22 closed-form error {m22_err:.3e} at n={n}"
            )
    for key in ("r_max", "prop31", "mixed22_gap_max"):
        vals = [info[key] for info in per_n]
        if any(b >= a for a, b in zip(vals, vals[1:])):
            failures.append(f"joint-verify: {key} not strictly decreasing over n_grid")
    return columns, rows, {"per_n": per_n}, failures


def build_test_vector(v: dict) -> tuple[tuple[SpectralFn, ...], GaussianTarget, str]:
    """The components, exact-covariance target and name of a bound-check vector,
    as the config holds them: a sequence spec with `type` naming the family,
    `n` picking the member, `scale` multiplying every component and `name`
    (default: the family's member name).  The alias {"type": "eigenfunction",
    "degree": p} is spread's Q_p at n = 1, named <kind label>-Q<p>.  A missing
    field raises KeyError, a malformed or out-of-range one (a non-finite second
    moment too) ValueError or TypeError, a refused basis RuntimeError."""
    alias = v.get("type") == "eigenfunction"
    if alias:
        _object(v, "vector spec", ("type", "name", "kind", "degree", "scale"))
        v = dict(v, type="spread", p=v["degree"], n=1)
        del v["degree"]
    spec = _sequence(v, "vector spec", "type", ("n", "scale", "name"))
    n = as_int(v["n"])
    fs = spec.build(n)
    if "scale" in v:
        fs = tuple(f.scale(as_real(v["scale"])) for f in fs)
    name = f"{spec.kind.label()}-Q{spec.params['p']}" if alias else spec.name(n)
    return fs, moments.exact_target(fs), str(v.get("name", name))


def t_grid(axis: tuple[float, ...], dim: int, t_max: float) -> list[np.ndarray]:
    """Cartesian grid axis^dim restricted to the ball ||t|| <= t_max."""
    grids = [np.array(t) for t in itertools.product(axis, repeat=dim)]
    return [t for t in grids if float(np.linalg.norm(t)) <= t_max]


def _run_bound_check(cfg: ExperimentConfig):
    """The CF gap of each vector against the target parsed with it, at each
    grid point, gated by ||t||^2 prop31 + 3 stderr; no covariance is built."""
    columns = ["vector", "t", "t_norm", "gap", "stderr", "prop31", "rhs", "pass"]
    rows: list[list] = []
    failures: list[str] = []
    checks = [(fs, target, t_grid(cfg.t_axis, len(fs), cfg.t_max))
              for fs, target, _ in cfg.vectors]
    gaps = montecarlo.sampled_cf_gaps(checks, cfg.n_samples, cfg.seed)
    for (fs, target, ts), (_, _, name), vector_gaps in zip(checks, cfg.vectors, gaps):
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
    columns = [
        "instance", "family", "dim", "support", "lambda_max", "eta",
        "lhs", "rhs", "margin", "violation",
    ]
    rng = np.random.default_rng(cfg.seed)
    rows: list[list] = []
    failures: list[str] = []
    for i in range(cfg.count):
        kind = cfg.families[i % len(cfg.families)]
        d = int(rng.integers(1, cfg.max_coords + 1))
        space = product_space(kind, cfg.max_degree, d)
        f = random_span_function(space, rng)
        lam_max = max(space.eigenvalue(a) for a in f.support())
        eta = lam_max if i % 5 == 0 else lam_max * (1.0 + float(rng.uniform(0, 1)))
        lhs, rhs = moments.thm33_sides(f, eta)
        scale = max(1.0, abs(lhs), abs(rhs))
        bad = lhs > rhs + THM33_TOL * scale
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
    columns = ["instance", "p", "m", "lhs", "rhs", "abs_err", "allowed", "pass"]
    rng = np.random.default_rng(cfg.seed)
    rows: list[list] = []
    failures: list[str] = []
    for i in range(cfg.count):
        p = int(rng.integers(1, cfg.p_max + 1))
        m = int(rng.integers(1, cfg.m_max + 1))
        f = random_sym_tensor(m, p, rng)
        g = random_sym_tensor(m, p, rng)
        lhs, rhs = wiener.product_formula_check(f, g)
        err = abs(lhs - rhs)
        allowed = PRODUCT_FORMULA_TOL * (1.0 + abs(lhs))
        ok = err <= allowed
        rows.append([i, p, m, lhs, rhs, err, allowed, ok])
        if not ok:
            failures.append(
                f"product-formula-check: instance {i} (p={p}, m={m}): "
                f"|lhs - rhs| = {err:.3e} > {allowed:.3e}"
            )
    summary = {"count": cfg.count, "violations": len(failures)}
    return columns, rows, summary, failures


# experiment -> (its config class, its runner)
_EXPERIMENTS = {
    "chaos-check": (SequenceConfig, _run_chaos_check),
    "fmt-verify": (SequenceConfig, _run_fmt_verify),
    "joint-verify": (SequenceConfig, _run_joint_verify),
    "bound-check": (BoundCheckConfig, _run_bound_check),
    "thm33-check": (Thm33Config, _run_thm33_check),
    "product-formula-check": (ProductFormulaConfig, _run_product_formula_check),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def run(cfg: ExperimentConfig) -> RunResult:
    """Run one experiment; writes report.json / report.csv under cfg.out, which
    is created first.  Raises OSError where that directory cannot be made or
    written."""
    cfg.out.mkdir(parents=True, exist_ok=True)
    columns, rows, summary, failures = _EXPERIMENTS[cfg.experiment][1](cfg)
    return _write_reports(cfg, columns, rows, summary, failures)
