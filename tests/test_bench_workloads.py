"""Every request the benchmark sends must parse.

`bench/workloads.py` builds the request configs that `bench/run.py` passes to
`parse_config`, which refuses any key an experiment does not read; a request
it refused would count as a failed operation.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from chaoskit.experiments import parse_config

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_benchmark_requests_parse():
    workloads = _load_workloads()
    assert set(workloads.WORKLOADS) == {"joint-heavy", "mc-bound", "many-small"}
    for make_round in workloads.WORKLOADS.values():
        for seed in (1, 2, 3):
            for round_index in (0, 1, 2):
                requests = make_round(seed, round_index)
                assert requests
                for req in requests:
                    assert parse_config(req.config).raw == req.config, req.label
