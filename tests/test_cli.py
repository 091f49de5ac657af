"""CLI behaviour: config parsing, exit codes, report files, determinism."""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from chaoskit import SequenceSpec, laguerre, moments, montecarlo, pair_mixed
from chaoskit.cli import main
from chaoskit.experiments import (
    ConfigError, build_test_vector, load_config, parse_config, run,
)

CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
SPREAD = {"family": "spread", "kind": {"kind": "hermite", "params": []}, "p": 2}


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def fmt_config(tmp_path, **overrides):
    obj = {
        "experiment": "fmt-verify",
        "sequence": SPREAD,
        "n_grid": [1, 2, 3],
        "seed": 7,
        "out": str(tmp_path / "out"),
    }
    obj.update(overrides)
    return write_config(tmp_path, obj)


def test_fmt_verify_run(tmp_path, capsys):
    code = main(["fmt-verify", "--config", fmt_config(tmp_path)])
    assert code == 0
    out_dir = tmp_path / "out"
    with open(out_dir / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["n"] for r in rows] == ["1", "2", "3"]
    for r in rows:
        assert abs(float(r["m4"]) - (3.0 + 12.0 / int(r["n"]))) <= 1e-9
    report = json.loads((out_dir / "report.json").read_text())
    assert report["passed"] is True
    assert abs(report["summary"]["m4_sup"] - 15.0) < 1e-9


def test_exit_code_two_on_unwritable_out(tmp_path, capsys):
    """An --out naming a file, or a report path a directory holds, exits 2
    with a message naming the path instead of a traceback."""
    cfg = fmt_config(tmp_path)
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    assert main(["fmt-verify", "--config", cfg, "--out", str(a_file)]) == 2
    assert f"cannot write reports to {a_file}" in capsys.readouterr().err
    taken = tmp_path / "taken"
    (taken / "report.json").mkdir(parents=True)
    assert main(["fmt-verify", "--config", cfg, "--out", str(taken)]) == 2
    assert str(taken / "report.json") in capsys.readouterr().err


def test_exit_code_two_on_config_errors(tmp_path, capsys):
    assert main(["fmt-verify", "--config", str(tmp_path / "missing.json")]) == 2
    bad = write_config(tmp_path, {"experiment": "fmt-verify", "sequence": SPREAD,
                                  "n_grid": [3, 2]})
    assert main(["fmt-verify", "--config", bad]) == 2
    err = capsys.readouterr().err
    assert "strictly increasing" in err
    mismatched = fmt_config(tmp_path)
    assert main(["thm33-check", "--config", mismatched]) == 2
    malformed = fmt_config(tmp_path, n_grid=[1, "x"])
    assert main(["fmt-verify", "--config", malformed]) == 2
    assert "'n_grid'" in capsys.readouterr().err
    # A bound-check whose t grid would be empty has no row to check.
    pair = {"type": "pair_mixed", "p1": 2, "p2": 2, "rho": 0.5, "n": 2}
    for extra, message in (({"t_max": float("nan")}, "finite"),
                           ({"t_max": 0.1}, "no grid point")):
        empty = write_config(tmp_path, {"experiment": "bound-check", "vectors": [pair],
                                        "out": str(tmp_path / "bc"), **extra})
        assert main(["bound-check", "--config", empty]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "bc").exists()


def test_unknown_experiment_rejected_by_argparse(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-thing", "--config", "x.json"])
    assert exc.value.code == 2


def test_exit_code_one_names_failing_row(tmp_path, capsys):
    """A Jacobi Q_2 squares above 2 lambda_2, so each spread element fails its
    chaos gate, and the exit names each failing row."""
    jacobi_spread = dict(SPREAD, kind={"kind": "jacobi", "params": [2.0, 3.0]})
    cfg = fmt_config(tmp_path, sequence=jacobi_spread)
    assert main(["fmt-verify", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert "FAIL fmt-verify: sequence element not chaotic at n=1" in err


def test_seed_and_out_overrides(tmp_path):
    cfg = fmt_config(tmp_path)
    other = tmp_path / "elsewhere"
    code = main(["fmt-verify", "--config", cfg, "--seed", "99", "--out", str(other)])
    assert code == 0
    report = json.loads((other / "report.json").read_text())
    assert report["seed"] == 99


def test_csv_byte_identical_across_runs(tmp_path):
    """Both experiments that draw random instances give the same report.csv
    bytes when rerun with one seed."""
    for obj in ({"experiment": "thm33-check", "count": 60, "seed": 5, "max_coords": 2,
                 "max_degree": 5},
                {"experiment": "product-formula-check", "count": 12, "seed": 5, "p_max": 3,
                 "m_max": 3}):
        name = obj["experiment"]
        cfg = write_config(tmp_path, obj)
        assert main([name, "--config", cfg, "--out", str(tmp_path / name / "a")]) == 0
        assert main([name, "--config", cfg, "--out", str(tmp_path / name / "b")]) == 0
        a = (tmp_path / name / "a" / "report.csv").read_bytes()
        b = (tmp_path / name / "b" / "report.csv").read_bytes()
        assert a == b


def test_only_bound_check_loads_numpy_random(tmp_path):
    """Only bound-check samples (numpy's Philox streams); thm33-check and
    product-formula-check draw their instances from random.Random, so a fresh
    interpreter that runs every other experiment never imports numpy.random."""
    script = ("import json, sys\n"
              "from chaoskit.experiments import parse_config, run\n"
              "for obj in json.loads(sys.argv[1]):\n"
              "    assert run(parse_config(obj)).passed\n"
              "print('numpy.random' in sys.modules)\n")
    sampling_free = [
        {"experiment": "thm33-check", "count": 20, "seed": 3},
        {"experiment": "product-formula-check", "count": 4, "p_max": 2, "m_max": 2, "seed": 3},
        {"experiment": "chaos-check", "sequence": SPREAD, "n_grid": [1, 2]},
        {"experiment": "fmt-verify", "sequence": SPREAD, "n_grid": [1, 2]},
        {"experiment": "joint-verify", "n_grid": [2, 4], "sequence": {
            "family": "pair_mixed", "p1": 2, "p2": 2, "rho": 0.5}},
    ]
    bound = [{"experiment": "bound-check", "n_samples": 500, "t_axis": [0.5], "seed": 3,
              "vectors": [{"type": "eigenfunction", "degree": 2, "scale": 2 ** -0.5}]}]
    for configs, loaded in ((sampling_free, "False"), (bound, "True")):
        for k, obj in enumerate(configs):
            obj["out"] = str(tmp_path / f"{obj['experiment']}-{k}")
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(configs)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [loaded]


def test_results_independent_of_thread_count(tmp_path, monkeypatch):
    """Reports are the same bytes with one Monte Carlo worker and with two."""
    hermite = {"kind": "hermite", "params": []}
    configs = {
        "fmt-verify": fmt_config(tmp_path, n_grid=[1, 2, 3, 4, 5, 6]),
        "bound-check": write_config(tmp_path, {
            "experiment": "bound-check",
            "vectors": [
                {"name": "q2", "type": "eigenfunction", "kind": hermite,
                 "degree": 2, "scale": 0.5},
                {"name": "pair", "type": "pair_mixed", "p1": 2, "p2": 2,
                 "rho": 0.5, "n": 4},
            ],
            "t_axis": [0.5, 1.0],
            "t_max": 2.0,
            "n_samples": 2 * montecarlo.CHUNK + 17,
            "seed": 3,
        }, name="bound.json"),
    }
    outputs = {}
    for workers in (1, 2):
        monkeypatch.setattr(montecarlo, "_WORKERS", workers)
        for experiment, cfg in configs.items():
            out = tmp_path / experiment
            assert main([experiment, "--config", cfg, "--out", str(out)]) == 0
            outputs.setdefault(experiment, []).append(
                ((out / "report.csv").read_bytes(), (out / "report.json").read_bytes()))
    assert montecarlo._pool is not None
    for experiment, (one, two) in outputs.items():
        assert one == two, experiment


def test_joint_verify_csv_schema(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "joint-verify",
        "sequence": {"family": "pair_mixed", "kind": {"kind": "hermite", "params": []},
                     "p1": 2, "p2": 2, "rho": 0.5},
        "n_grid": [2, 4],
        "out": str(tmp_path / "jv"),
    })
    assert main(["joint-verify", "--config", cfg]) == 0
    with open(tmp_path / "jv" / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["n", "i", "j", "lambda_i", "lambda_j", "cov",
                             "mixed22", "isserlis", "r_ij", "var_gamma_ij"]
    assert len(rows) == 2 * 4  # per n: 2x2 ordered pairs


def test_joint_verify_negative_rho(tmp_path):
    # int F1^2 F2^2 does not depend on the sign of the shared block.
    cfg = write_config(tmp_path, {
        "experiment": "joint-verify",
        "sequence": {"family": "pair_mixed", "kind": {"kind": "hermite", "params": []},
                     "p1": 2, "p2": 2, "rho": -0.5},
        "n_grid": [2, 4, 8],
        "out": str(tmp_path / "jv"),
    })
    assert main(["joint-verify", "--config", cfg]) == 0
    report = json.loads((tmp_path / "jv" / "report.json").read_text())
    for info in report["summary"]["per_n"]:
        assert abs(info["rho_realized"] + 0.5) <= 1e-12
        assert info["mixed22_closed_form_err"] <= 1e-9


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_config_passes(path, tmp_path):
    assert run(load_config(path, out_override=tmp_path)).passed


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_report_csv_rows_have_header_width(path, tmp_path):
    """A cell with a comma, such as thm33's family jacobi(2,2), is quoted, so
    every row of report.csv reads back with the header's width."""
    result = run(load_config(path, out_override=tmp_path))
    with open(result.report_csv, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert rows and {len(row) for row in rows} == {len(header)}


def test_product_formula_and_chaos_check_run(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "product-formula-check", "count": 10, "seed": 2,
        "p_max": 2, "m_max": 3, "out": str(tmp_path / "pf"),
    })
    assert main(["product-formula-check", "--config", cfg]) == 0

    cfg = write_config(tmp_path, {
        "experiment": "chaos-check", "sequence": SPREAD, "n_grid": [1, 2],
        "out": str(tmp_path / "cc"),
    }, name="cc.json")
    assert main(["chaos-check", "--config", cfg]) == 0


def test_product_formula_order_limit(tmp_path, capsys):
    """At m_max = 1 the dense contraction has 2 p_max - 2 axes: 17 is the
    largest order that runs, 18 (and the 200 that the degree cap alone would
    admit) exit 2 before any report is written.  At p_max = 1 it has none,
    but squaring I_1(f) takes m_max^3 steps, so m_max 102 exits 2 too."""
    cfg = write_config(tmp_path, {
        "experiment": "product-formula-check", "count": 4, "seed": 2,
        "p_max": 17, "m_max": 1, "out": str(tmp_path / "ok"),
    })
    assert main(["product-formula-check", "--config", cfg]) == 0
    with open(tmp_path / "ok" / "report.csv") as fh:
        assert "17" in {row["p"] for row in csv.DictReader(fh)}
    for p_max, m_max in ((18, 1), (200, 1), (12, 2), (1, 102)):
        cfg = write_config(tmp_path, {
            "experiment": "product-formula-check", "p_max": p_max, "m_max": m_max,
            "out": str(tmp_path / "refused"),
        })
        assert main(["product-formula-check", "--config", cfg]) == 2
        assert f"p_max {p_max} with m_max {m_max}" in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()


def test_chaos_check_fails_for_jacobi(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "experiment": "chaos-check",
        "sequence": {"family": "spread",
                     "kind": {"kind": "jacobi", "params": [2.0, 2.0]}, "p": 1},
        "n_grid": [2],
        "out": str(tmp_path / "ccj"),
    })
    assert main(["chaos-check", "--config", cfg]) == 1
    assert "not chaotic" in capsys.readouterr().err


def test_chaos_check_builds_three_products_per_pair(tmp_path, monkeypatch):
    """F1^2, F2^2 and F1 F2 per grid point: the squares serve the component rows
    and the vector's i = j pairs alike."""
    from chaoskit import spectral

    calls = []
    plain = spectral.multiply

    def counting(f, g):
        calls.append((f, g))
        return plain(f, g)

    monkeypatch.setattr(spectral, "multiply", counting)
    cfg = write_config(tmp_path, {
        "experiment": "chaos-check",
        "sequence": {"family": "pair_mixed", "kind": {"kind": "hermite", "params": []},
                     "p1": 2, "p2": 2, "rho": 0.5},
        "n_grid": [2, 4],
        "out": str(tmp_path / "cc"),
    })
    assert main(["chaos-check", "--config", cfg]) == 0
    assert len(calls) == 3 * 2
    rows = list(csv.DictReader((tmp_path / "cc" / "report.csv").read_text().splitlines()))
    assert [r["component"] for r in rows] == ["F1", "F2", "vector"] * 2
    assert all(r["chaotic"] == "true" for r in rows)


def test_bound_check_small(tmp_path):
    cfg = write_config(tmp_path, {
        "experiment": "bound-check",
        "vectors": [
            {"name": "q1", "type": "eigenfunction",
             "kind": {"kind": "hermite", "params": []}, "degree": 1, "scale": 1.0},
        ],
        "t_axis": [0.5, 1.0],
        "n_samples": 20000,
        "seed": 3,
        "out": str(tmp_path / "bc"),
    })
    assert main(["bound-check", "--config", cfg]) == 0
    with open(tmp_path / "bc" / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["pass"] == "true" for r in rows)


def test_sequence_families_reach_bound_check(tmp_path):
    """A bound-check vector is a sequence spec under `type`, plus `n` and
    `scale`: it builds, bit for bit, what the sequence table builds, and a
    small bound-check over a scaled Laguerre(1/2) spread and a pair passes."""
    lag = {"kind": "laguerre", "params": [0.5]}
    spread_v = {"type": "spread", "kind": lag, "p": 2, "n": 4, "scale": 0.5}
    pair_v = {"type": "pair_mixed", "kind": lag, "p1": 2, "p2": 1, "rho": 0.25, "n": 3}
    for v, expected, name in (
        (spread_v, tuple(f.scale(0.5) for f in
                         SequenceSpec("spread", laguerre(0.5), {"p": 2}).build(4)),
         "spread(2,4)"),
        (pair_v, pair_mixed(2, 1, 0.25, 3, kind=laguerre(0.5)), "pair(2,1,0.25,3)"),
    ):
        fs, _, built_name = build_test_vector(v)
        assert [f.to_json() for f in fs] == [f.to_json() for f in expected]
        assert built_name == name
    cfg = write_config(tmp_path, {
        "experiment": "bound-check", "vectors": [spread_v, pair_v],
        "t_axis": [0.5, 1.0], "n_samples": 5000, "seed": 11, "out": str(tmp_path / "bc"),
    })
    assert main(["bound-check", "--config", cfg]) == 0
    report = json.loads((tmp_path / "bc" / "report.json").read_text())
    assert {row[0] for row in report["rows"]} == {"spread(2,4)", "pair(2,1,0.25,3)"}


def test_default_vector_names_read_back_from_csv(tmp_path):
    """Default bound-check names such as pair(2,2,0.5,4) hold commas; csv.DictReader
    reads each row of report.csv back with the name report.json gives it."""
    report = run(parse_config({
        "experiment": "bound-check",
        "vectors": [{"type": "pair_mixed", "p1": 2, "p2": 2, "rho": 0.5, "n": 4},
                    {"type": "spread", "kind": SPREAD["kind"], "p": 2, "n": 4}],
        "t_axis": [0.5], "n_samples": 2000, "seed": 5,
    }, out_override=str(tmp_path)))
    rows = json.loads(report.report_json.read_text())["rows"]
    with open(report.report_csv, newline="") as fh:
        read = list(csv.DictReader(fh))
    assert [r["vector"] for r in read] == [row[0] for row in rows]
    assert {row[0] for row in rows} == {"pair(2,2,0.5,4)", "spread(2,4)"}
    assert all(None not in r for r in read)  # no cell past the header


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chaoskit", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "chaoskit" in proc.stdout


def test_bound_check_builds_each_covariance_once(monkeypatch, tmp_path):
    """A bound-check request builds each vector's Gaussian target once, while
    the config is parsed, and the run uses the parsed targets as they are."""
    made = []
    plain = moments.GaussianTarget.__post_init__

    def counting(self):
        made.append(self)
        plain(self)

    monkeypatch.setattr(moments.GaussianTarget, "__post_init__", counting)
    cfg = load_config(Path(__file__).parent.parent / "configs" / "bound_check.json",
                      out_override=str(tmp_path))
    assert len(cfg.vectors) == 6
    assert made == [target for _, target, _ in cfg.vectors]
    run(cfg)
    assert len(made) == 6
    # A scale whose second moment overflows is refused with the message the
    # covariance raises.
    q1 = {"type": "eigenfunction", "degree": 1, "scale": 1e200}
    with pytest.raises(ConfigError,
                       match=r"bad vector spec .*: inner product is not finite \(inf\)"):
        parse_config({"experiment": "bound-check", "vectors": [q1]})
    assert len(made) == 6


def test_joint_verify_builds_one_covariance_per_grid_point(monkeypatch, tmp_path):
    """joint-verify builds one covariance per n: the exact target's, which the
    report's cov matrix is, not a second copy built for the report."""
    made, reports = [], []
    plain_target = moments.GaussianTarget.__post_init__
    plain_report = moments.joint_report

    def counting(self):
        made.append(self)
        plain_target(self)

    def recording(*args):
        reports.append(plain_report(*args))
        return reports[-1]

    monkeypatch.setattr(moments.GaussianTarget, "__post_init__", counting)
    monkeypatch.setattr(moments, "joint_report", recording)
    cfg = load_config(Path(__file__).parent.parent / "configs" / "joint_pair.json",
                      out_override=str(tmp_path))
    assert made == []
    assert run(cfg).passed
    assert len(made) == len(reports) == len(cfg.n_grid) == 5
    assert all(rep.cov is target.cov for rep, target in zip(reports, made))


Q1 = {"type": "eigenfunction", "degree": 1}
HERMITE_EXTRA = {"kind": "hermite", "params": [], "max_degree": 4}


@pytest.mark.parametrize("obj, key", [
    ({"experiment": "bound-check", "vectors": [Q1], "n_sample": 10}, "n_sample"),
    ({"experiment": "product-formula-check", "max_degree": 3}, "max_degree"),
    ({"experiment": "fmt-verify", "sequence": SPREAD, "n_grid": [1],
      "tolerances": {"closed_form": 1e-9}}, "tolerances"),
    ({"experiment": "bound-check", "vectors": [Q1], "tolerances": {"chaos": 1e-8}},
     "tolerances"),
    ({"experiment": "fmt-verify", "sequence": dict(SPREAD, p1=3), "n_grid": [1]}, "p1"),
    ({"experiment": "chaos-check", "sequence": {"family": "spreed", "p": 2},
      "n_grid": [1]}, "spreed"),
    ({"experiment": "bound-check", "vectors": [dict(Q1, degre=3)]}, "degre"),
    ({"experiment": "thm33-check", "families": [HERMITE_EXTRA]}, "max_degree"),
    ({"experiment": "chaos-check", "sequence": dict(SPREAD, kind=HERMITE_EXTRA),
      "n_grid": [1]}, "max_degree"),
    ({"experiment": "bound-check", "vectors": [dict(Q1, kind=HERMITE_EXTRA)]}, "max_degree"),
], ids=["top", "other-experiment", "tolerance", "tolerance-unread", "sequence",
        "sequence-family", "vector", "families-kind", "sequence-kind", "vector-kind"])
def test_unread_keys_exit_two(obj, key, tmp_path, capsys):
    """A key the run would not read, or a sequence family it does not know, is
    refused at every level of the config with a message that names it; no
    report is written."""
    cfg = write_config(tmp_path, {**obj, "out": str(tmp_path / "out")})
    assert main([obj["experiment"], "--config", cfg]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_parse_config_validation():
    with pytest.raises(ConfigError):
        parse_config(["not", "a", "dict"])
    with pytest.raises(ConfigError):
        parse_config({"experiment": "nope"})
    with pytest.raises(ConfigError):
        parse_config({"experiment": "fmt-verify", "n_grid": [1],
                      "sequence": dict(SPREAD, p=0)})
    with pytest.raises(ConfigError):
        parse_config({"experiment": "joint-verify", "n_grid": [1],
                      "sequence": {"family": "pair_mixed", "p1": 2, "p2": 2, "rho": 2.0}})
    with pytest.raises(ConfigError):
        parse_config({"experiment": "bound-check", "vectors": []})
    with pytest.raises(ConfigError):
        parse_config({"experiment": "bound-check",
                      "vectors": [{"type": "eigenfunction"}]})  # missing degree
    with pytest.raises(ConfigError):
        parse_config({"experiment": "thm33-check", "count": 0})
    # Malformed values are config errors too, not tracebacks.
    q1 = {"type": "eigenfunction", "degree": 1}
    pair = {"type": "pair_mixed", "p1": 2, "p2": 2, "rho": 0.5, "n": 2}
    for obj in (
        {"experiment": "thm33-check", "count": "many"},
        {"experiment": "thm33-check", "seed": "abc"},
        {"experiment": "thm33-check", "families": ["hermite"]},
        {"experiment": "fmt-verify", "sequence": SPREAD, "n_grid": [1, "x"]},
        {"experiment": "fmt-verify", "sequence": "spread", "n_grid": [1]},
        {"experiment": "bound-check", "vectors": [q1], "n_samples": "1e5"},
        {"experiment": "bound-check", "vectors": [dict(q1, degree="two")]},
        {"experiment": "bound-check", "vectors": [dict(q1, degree=0)]},
        {"experiment": "bound-check", "vectors": [dict(q1, scale="half")]},
        {"experiment": "bound-check", "vectors": [dict(q1, scale=float("nan"))]},
        {"experiment": "bound-check", "vectors": [dict(q1, kind="hermite")]},
        {"experiment": "bound-check", "vectors": [dict(pair, p1="x")]},
        {"experiment": "bound-check", "vectors": [dict(pair, rho=2.0)]},
        {"experiment": "bound-check", "vectors": [dict(pair, rho=float("nan"))]},
        {"experiment": "bound-check", "vectors": [dict(pair, n=0)]},
        {"experiment": "bound-check", "vectors": ["q1"]},
        # Non-finite t values, and vectors whose t grid is empty.
        {"experiment": "bound-check", "vectors": [pair], "t_max": float("nan")},
        {"experiment": "bound-check", "vectors": [q1], "t_max": float("inf")},
        {"experiment": "bound-check", "vectors": [q1], "t_axis": [0.5, float("nan")]},
        {"experiment": "bound-check", "vectors": [q1], "t_axis": [0.5, float("inf")]},
        {"experiment": "bound-check", "vectors": [q1], "t_axis": []},
        {"experiment": "bound-check", "vectors": [q1], "t_max": 0.1},
        {"experiment": "bound-check", "vectors": [q1, pair], "t_axis": [1.0], "t_max": 1.2},
        # Bases past the degree cap, and a seed past uint64.
        {"experiment": "thm33-check", "max_degree": 600},
        {"experiment": "fmt-verify", "sequence": dict(SPREAD, p=300), "n_grid": [1]},
        {"experiment": "bound-check", "vectors": [dict(q1, degree=300)]},
        {"experiment": "bound-check", "vectors": [q1], "seed": 2**200},
        # Integers refuse bools, strings and fractions; reals refuse bools and strings.
        {"experiment": "fmt-verify", "sequence": dict(SPREAD, p=2.7), "n_grid": [1]},
        {"experiment": "fmt-verify", "sequence": SPREAD, "n_grid": [1.9, 2.5]},
        {"experiment": "thm33-check", "count": True},
        {"experiment": "thm33-check", "max_degree": "6"},
        {"experiment": "thm33-check", "seed": 3.99},
        {"experiment": "bound-check", "vectors": [q1], "n_samples": 10.5},
        {"experiment": "product-formula-check", "p_max": 2.9},
        {"experiment": "bound-check", "vectors": [dict(q1, degree=True)]},
        {"experiment": "joint-verify", "n_grid": [1],
         "sequence": {"family": "pair_mixed", "p1": 2, "p2": 2, "rho": True}},
        {"experiment": "bound-check", "vectors": [dict(pair, rho=True)]},
        {"experiment": "thm33-check", "families": [{"kind": "laguerre", "params": ["0.5"]}]},
        {"experiment": "chaos-check", "n_grid": [1],
         "sequence": dict(SPREAD, kind={"kind": "laguerre", "params": ["0.5"]})},
        {"experiment": "bound-check", "vectors": [dict(pair, p2=2.9)]},
    ):
        with pytest.raises(ConfigError):
            parse_config(obj)
    # An integral float is an integer.
    cfg = parse_config({"experiment": "bound-check", "vectors": [dict(pair, n=2.0)],
                        "n_samples": 1e5, "seed": 3.0})
    assert (cfg.n_samples, cfg.seed, cfg.vectors[0][2]) == (100000, 3, "pair(2,2,0.5,2)")
    assert type(cfg.n_samples) is int and type(cfg.seed) is int
    # The grid is checked in each vector's own dimension: ||(1,)|| <= 1.2 < ||(1, 1)||.
    cfg = parse_config({"experiment": "bound-check", "vectors": [q1], "t_axis": [1.0],
                        "t_max": 1.2})
    assert cfg.t_axis == (1.0,) and cfg.t_max == 1.2
    assert parse_config({"experiment": "thm33-check", "seed": 2**64 - 1}).seed == 2**64 - 1
    with pytest.raises(ConfigError, match="64-bit"):
        parse_config({"experiment": "thm33-check", "seed": 2**64})
