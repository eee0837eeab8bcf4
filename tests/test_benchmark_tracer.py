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
    """The tracer patches the model and the numeric modules after
    `import ultranet.cli`, which loads none of them; its spans must
    still show each of them wrapped in a real run."""
    env = {**os.environ, "PYTHONPATH": str(TRACER.parents[1] / "src")}
    runs = {
        "classify": ("classify", "--preset", "conservative_two_basin"),
        "solve": ("solve", "--preset", "single_basin"),
        "simulate": ("simulate", "--preset", "single_basin"),
    }
    names = {}
    for name, argv in runs.items():
        spans = tmp_path / f"{name}.json"
        done = subprocess.run(
            [sys.executable, str(TRACER), str(spans), *argv, "--out", str(tmp_path / name)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        names[name] = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert "network.classify" in names["classify"]
    assert {"spectral.init", "spectral.decay_rates", "network.build_basin_matrix"} <= names["solve"]
    assert {"tree.discretize", "montecarlo.simulate"} <= names["simulate"]


def test_the_exponential_count_leaves_out_the_chain_oracle(tmp_path):
    """spectral.matrix_exponential and the oracle's dense route share one
    exponential, but the tracer rebinds only the spectral name's function
    object: an oracle run at a time where the chain takes its dense route
    counts the spectral side's one chunk of times, as solve does."""
    from ultranet import tree
    from ultranet.cli import load_preset, parse_config, spec_from_config

    text = load_preset("single_basin").replace("times: [0.0, 0.5, 1.0, 2.0]", "times: [1.0e+6]")
    cfg = parse_config(text)
    gen = tree.discretize(spec_from_config(cfg), cfg["resolution"] + 1)
    assert not tree._action_is_cheaper(-gen.Q.diagonal().min() * 1e6, gen.dim)
    config = tmp_path / "late.yaml"
    config.write_text(text)
    env = {**os.environ, "PYTHONPATH": str(TRACER.parents[1] / "src")}
    counts = {}
    for command in ("solve", "oracle"):
        spans = tmp_path / f"{command}.json"
        done = subprocess.run(
            [sys.executable, str(TRACER), str(spans), command, "--config", str(config),
             "--out", str(tmp_path / command)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        counts[command] = json.loads(spans.read_text())["counts"]["spectral.matrix_exponential"]
    assert counts == {"solve": 1, "oracle": 1}
