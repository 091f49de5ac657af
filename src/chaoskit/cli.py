"""Command-line experiment runner.

    chaoskit <experiment> --config PATH [--seed U64] [--out DIR]

Writes report.json and report.csv into the output directory.  Exit codes:
0 all gated checks passed, 1 a check failed (the failing rows are named on
stderr), 2 configuration error or an output directory that cannot be made or
written.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import EXPERIMENTS, ConfigError, load_config, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaoskit",
        description="Exact spectral diagnostics and Monte Carlo verification "
        "of fourth-moment limit theorems for diffusion generators.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None,
                        help="override the config output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
        if cfg.experiment != args.experiment:
            raise ConfigError(
                f"config is for {cfg.experiment!r}, not {args.experiment!r}"
            )
        result = run(cfg)
    except ConfigError as exc:
        print(f"chaoskit: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # from run: only the output directory is written
        print(f"chaoskit: cannot write reports to {cfg.out}: {exc}", file=sys.stderr)
        return 2
    print(f"report.json: {result.report_json}")
    print(f"report.csv:  {result.report_csv}")
    if not result.passed:
        for line in result.failures:
            print(f"FAIL {line}", file=sys.stderr)
        return 1
    print(f"{args.experiment}: all gated checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
