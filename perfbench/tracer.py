"""Traced runner: one ultranet CLI invocation with spans around its layers.

    python perfbench/tracer.py SPANS.json <ultranet cli arguments...>

It times `import ultranet.cli` (and, nested wherever it happens, the
first `import scipy.linalg`), wraps the public functions listed below in
their defining module and in every ultranet module that imported them by
name, then calls `ultranet.cli.main(argv)` under a root span. Spans and
counts stay in memory and are written to SPANS.json at exit; the exit
code is the CLI's. No file of the package is changed.

A span is [name, start, end, parent index, quantities]; parent -1 marks
a root. Self time is a span minus its direct children.
"""

import builtins
import json
import math
import resource
import sys
import time

clock = time.perf_counter

# Functions that get a span, by defining module. Their `.s` metric is
# the inclusive time of the outermost span per name.
SPANNED = {
    "ultranet.cli": ("parse_config", "spec_from_config", "datum_from_config", "emit_plotdata"),
    "ultranet.network": ("build_basin_matrix", "aggregate_rates", "classify"),
    "ultranet.wavelets": ("wavelet_matrix", "expand"),
    "ultranet.spectral": ("init", "evolve", "eval_density", "decay_rates", "absorbing_time"),
    "ultranet.tree": ("discretize", "solve", "compare"),
    "ultranet.montecarlo": ("simulate", "write_csv"),
    "ultranet.binary": ("folding_tau",),
}

# Hot helpers that are only counted: a span each would cost more than
# the call.
COUNTED = {
    "ultranet.kernels": ("symbol_value",),
    "ultranet.wavelets": ("enumerate_wavelets",),
    "ultranet.padic": ("enumerate_cells",),
    "ultranet.spectral": ("matrix_exponential",),
}


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _grid_steps(result, args, kwargs):
    return {"grid_steps": math.ceil(result.t_max / result.dt) if result.dt > 0 else 0}


# Sizes recorded on a span, computed from the call and its result.
QUANTITIES = {
    "wavelets.wavelet_matrix": lambda res, a, kw: {"bytes": res.nbytes},
    "spectral.absorbing_time": _grid_steps,
    "tree.discretize": lambda res, a, kw: {"states": res.dim},
    "montecarlo.simulate": lambda res, a, kw: {"path_starts": a[2].n_paths * a[0].dim},
}
RSS_RISE = {"spectral.absorbing_time", "tree.solve"}


class Trace:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, clock(), None, parent, {}])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = clock()
        self.stack.pop()

    def spanned(self, name, fn):
        measure = QUANTITIES.get(name)
        rss = name in RSS_RISE

        def wrapper(*args, **kwargs):
            before = _max_rss_mb() if rss else 0.0
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            qty = self.spans[index][4]
            if measure is not None:
                qty.update(measure(result, args, kwargs))
            if rss:
                qty["rss_rise_mb"] = _max_rss_mb() - before
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def time_import(self, target: str, name: str):
        """Give the first import of `target` a span, wherever it runs."""
        real = builtins.__import__

        def hooked(module, globals=None, locals=None, fromlist=(), level=0):
            wanted = level == 0 and (
                module == target or any(f"{module}.{x}" == target for x in fromlist or ())
            )
            if not wanted or target in sys.modules:
                return real(module, globals, locals, fromlist, level)
            index = self.open(name)
            try:
                return real(module, globals, locals, fromlist, level)
            finally:
                self.close(index)

        builtins.__import__ = hooked


def patch(trace: Trace) -> None:
    """Replace each listed function everywhere an ultranet module binds it."""
    modules = [m for n, m in sys.modules.items() if n == "ultranet" or n.startswith("ultranet.")]
    for table, make in ((SPANNED, trace.spanned), (COUNTED, trace.counted)):
        for module_name, names in table.items():
            module = sys.modules[module_name]
            short = module_name.split(".", 1)[1]
            for name in names:
                original = getattr(module, name)
                wrapper = make(f"{short}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    trace = Trace()
    trace.time_import("scipy.linalg", "import.scipy_linalg")
    index = trace.open("import.ultranet_cli")
    import ultranet.cli

    trace.close(index)
    patch(trace)
    rc = 1
    index = trace.open("cli.main")
    try:
        rc = ultranet.cli.main(cli_args)
    except SystemExit as exc:  # argparse exits on a usage error
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        while trace.stack:
            trace.close(trace.stack[-1])
        with open(spans_path, "w") as f:
            json.dump({"spans": trace.spans, "counts": trace.counts}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
