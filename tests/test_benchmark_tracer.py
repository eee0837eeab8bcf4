"""The benchmark tracer wraps library functions by name; a traced name
that no longer exists would only fail a traced benchmark run."""

import importlib
import importlib.util
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
