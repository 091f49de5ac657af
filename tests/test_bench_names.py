"""The benchmark's tracer wraps chaoskit functions by name; each must exist,
and a traced request must run as it does untraced.

`bench/tracing.py` replaces the names in its `FUNCTIONS` and `METHODS` tables
during traced benchmark runs, so renaming one of them breaks those runs.  Its
hooks read arguments and results (`SymTensor.items_sorted`, a batch's seed, a
sample's points, the report paths), so changing one of those breaks them too.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from chaoskit import experiments

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = _load_bench("tracing")
    assert tracing.FUNCTIONS and tracing.METHODS
    for layer, attr in tracing.FUNCTIONS:
        module = importlib.import_module(f"chaoskit.{layer}")
        assert callable(getattr(module, attr, None)), f"chaoskit.{layer}.{attr}"
    for span, (layer, cls_name, attr) in tracing.METHODS.items():
        cls = getattr(importlib.import_module(f"chaoskit.{layer}"), cls_name, None)
        assert cls is not None and attr in vars(cls), span


@pytest.mark.parametrize("workload", sorted(_load_bench("workloads").WORKLOADS))
def test_traced_request_matches_untraced(workload, tmp_path):
    """The first request of round 0 of seed 1 gives its expected failure
    lines and the same report bytes untraced and under `Tracer().patch()`,
    so the hooks run on what chaoskit returns and change nothing."""
    tracing = _load_bench("tracing")
    req = _load_bench("workloads").WORKLOADS[workload](1, 0)[0]
    tracer = tracing.Tracer()
    digests = []
    for context in (contextlib.nullcontext, tracer.patch):
        with context():
            result = experiments.run(experiments.parse_config({**req.config, "out": str(tmp_path)}))
        assert result.failures == req.expected_failures, context
        digests.append([hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in (result.report_csv, result.report_json)])
    assert digests[0] == digests[1]
    assert tracer.totals()[0]["experiments.run"][0] == 1
