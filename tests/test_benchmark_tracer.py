"""The benchmark tracer wraps library functions by name; a traced name
that no longer exists would only fail a traced benchmark run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # standard library imports only
    tables = (tracer.SPANNED, tracer.COUNTED)
    assert all(tables)
    missing = [
        f"{module_name}.{name}"
        for table in tables
        for module_name, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(module_name), name, None))
    ]
    assert missing == []


def test_traced_runs_exit_0_and_span_the_numeric_layers(tmp_path):
    """The tracer patches the numeric modules after `import ultranet.cli`;
    its spans must still show each of them wrapped in a real run."""
    env = {**os.environ, "PYTHONPATH": str(TRACER.parents[1] / "src")}
    names = set()
    for command in ("solve", "simulate"):
        spans = tmp_path / f"{command}.json"
        done = subprocess.run(
            [sys.executable, str(TRACER), str(spans), command,
             "--preset", "single_basin", "--out", str(tmp_path / command)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        names |= {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert {"spectral.init", "spectral.decay_rates", "tree.discretize",
            "montecarlo.simulate"} <= names
