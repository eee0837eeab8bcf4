"""Batch front end: config ingestion and the command-line subcommands.

Configs are YAML.  Parsing walks the composed node tree rather than the
plain loaded data so every complaint can point at a line number, and
unknown keys are rejected instead of ignored.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Hashable
from importlib import resources

import numpy as np
import yaml
from yaml.constructor import SafeConstructor

from . import spectral
from .binary import FoldingScenario, folding_tau, ivp2_datum
from .errors import NumericError, UsageError, ValidationError
from .kernels import RadialKernel, arrhenius_kernel
from .montecarlo import SimConfig, simulate
from .montecarlo import write_csv as write_mc_csv
from .network import CONVENTIONS, NetworkSpec, classify
from .padic import CellAddress, enumerate_cells, parse_cell_label
from .tree import compare, discretize
from .wavelets import CellFunction


class ConfigError(ValidationError):
    pass


# ---------------------------------------------------------------- yaml


def _line(node) -> int:
    return node.start_mark.line + 1


def _fail(node, message: str):
    raise ConfigError(f"line {_line(node)}: {message}")


def _to_python(node):
    """Convert a composed node to plain data. Scalars are read as YAML 1.1
    reads them (017 is octal, 1:30 is sexagesimal, .inf is a float)."""
    if isinstance(node, yaml.ScalarNode):
        try:
            return SafeConstructor().construct_object(node)
        except (yaml.YAMLError, ValueError, LookupError, AttributeError):
            # an explicit tag the text does not fit, such as !!int abc
            _fail(node, f"cannot read {node.value!r} as {node.tag}")
    if isinstance(node, yaml.SequenceNode):
        return [_to_python(child) for child in node.value]
    if isinstance(node, yaml.MappingNode):
        out = {}
        for key_node, value_node in node.value:
            key = _to_python(key_node)
            if not isinstance(key, Hashable):
                _fail(key_node, "a mapping key must be a single value")
            out[key] = _to_python(value_node)
        return out
    _fail(node, "unsupported structure")


def _expect_mapping(node, what: str):
    if not isinstance(node, yaml.MappingNode):
        _fail(node, f"{what} must be a mapping")
    for key, _ in node.value:
        if not isinstance(key, yaml.ScalarNode):
            _fail(key, f"keys of {what} must be single values")
    return [(key.value, key, value) for key, value in node.value]


def _expect_number(node, what: str) -> float:
    value = _to_python(node)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(node, f"{what} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        _fail(node, f"{what} must be finite, got {node.value}")
    return value


def _expect_int(node, what: str) -> int:
    value = _to_python(node)
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(node, f"{what} must be an integer")
    return value


def _expect_number_list(node, what: str) -> list:
    if not isinstance(node, yaml.SequenceNode):
        _fail(node, f"{what} must be a list")
    return [_expect_number(child, f"{what} entry") for child in node.value]


_TOP_KEYS = {
    "prime", "basins", "convention", "kernels", "arrhenius", "cross",
    "resolution", "datum", "times", "threshold", "seed", "paths",
    "t_max", "record_times",
}


def parse_config(text: str) -> dict:
    """Parse and normalize a config document.

    The result is a plain dict with every kernel spelled out as levels
    (Arrhenius inputs are resolved here) and defaults left unset; it can
    be dumped and re-read to the identical normalized form. Every
    rejection is a ConfigError.
    """
    try:
        return _parse_document(text)
    except RecursionError:
        raise ConfigError("the config nests too deeply or an alias contains itself") from None


def _parse_document(text: str) -> dict:
    try:
        root = yaml.compose(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    if root is None:
        raise ConfigError("the config document is empty")
    cfg: dict = {}
    seen = {}
    for key, key_node, value in _expect_mapping(root, "the config"):
        if key not in _TOP_KEYS:
            _fail(key_node, f"unknown key {key!r}")
        if key in seen:
            _fail(key_node, f"duplicate key {key!r}")
        seen[key] = value

    if "prime" not in seen:
        raise ConfigError("missing required key 'prime'")
    if "basins" not in seen:
        raise ConfigError("missing required key 'basins'")
    cfg["prime"] = _expect_int(seen["prime"], "prime")

    basins_node = seen["basins"]
    if not isinstance(basins_node, yaml.SequenceNode):
        _fail(basins_node, "basins must be a list")
    cfg["basins"] = [_expect_int(b, "basin") for b in basins_node.value]

    if "convention" in seen:
        conv = _to_python(seen["convention"])
        if conv not in CONVENTIONS:
            _fail(seen["convention"], f"convention must be one of {CONVENTIONS}")
        cfg["convention"] = conv

    if "kernels" in seen and "arrhenius" in seen:
        _fail(seen["arrhenius"], "give either kernels or arrhenius, not both")
    if "kernels" in seen:
        cfg["kernels"] = _parse_kernels(seen["kernels"], cfg["basins"])
    elif "arrhenius" in seen:
        cfg["kernels"] = _parse_arrhenius(seen["arrhenius"], cfg)
    else:
        raise ConfigError("missing kernel definitions: add 'kernels' or 'arrhenius'")

    cfg["cross"] = {"lambda": {}, "mu": {}}
    if "cross" in seen:
        cfg["cross"] = _parse_cross(seen["cross"], cfg["basins"])

    if "resolution" in seen:
        r = _expect_int(seen["resolution"], "resolution")
        if r < 1:
            _fail(seen["resolution"], "resolution must be >= 1")
        cfg["resolution"] = r
    if "datum" in seen:
        cfg["datum"] = _parse_datum(seen["datum"])
    if "times" in seen:
        times = _expect_number_list(seen["times"], "times")
        if any(t < 0 for t in times) or times != sorted(times):
            _fail(seen["times"], "times must be sorted and non-negative")
        cfg["times"] = times
    if "record_times" in seen:
        cfg["record_times"] = _expect_number_list(seen["record_times"], "record_times")
    if "threshold" in seen:
        cfg["threshold"] = _expect_number(seen["threshold"], "threshold")
    if "seed" in seen:
        cfg["seed"] = _expect_int(seen["seed"], "seed")
    if "paths" in seen:
        cfg["paths"] = _expect_int(seen["paths"], "paths")
    if "t_max" in seen:
        cfg["t_max"] = _expect_number(seen["t_max"], "t_max")
    return cfg


def _parse_kernels(node, basins):
    out = {}
    sides = dict(_expect_mapping_keys(node, "kernels", {"w", "v"}))
    for side in ("w", "v"):
        if side not in sides:
            _fail(node, f"kernels must define {side!r}")
        table = {}
        for key, key_node, value in _expect_mapping(sides[side], f"kernels.{side}"):
            basin = _parse_int_key(key, key_node)
            if basin not in basins:
                _fail(key_node, f"kernel basin {basin} is not in basins")
            table[basin] = _expect_number_list(value, f"kernels.{side}.{basin}")
        for basin in basins:
            if basin not in table:
                _fail(node, f"kernels.{side} is missing basin {basin}")
        out[side] = table
    return out


def _parse_arrhenius(node, cfg):
    fields = dict(_expect_mapping_keys(node, "arrhenius", {"kT", "barriers"}))
    if "kT" not in fields or "barriers" not in fields:
        _fail(node, "arrhenius needs both kT and barriers")
    kT = _expect_number(fields["kT"], "kT")
    table = {}
    for key, key_node, value in _expect_mapping(fields["barriers"], "barriers"):
        basin = _parse_int_key(key, key_node)
        barriers = _expect_number_list(value, f"barriers.{basin}")
        try:
            kernel = arrhenius_kernel(cfg["prime"], tuple(barriers), kT)
        except (UsageError, ValidationError) as exc:
            _fail(key_node, str(exc))
        except OverflowError:
            _fail(key_node, f"barriers.{basin}: a rate exp(-U/kT) exceeds the float range")
        table[basin] = list(kernel.levels)
    for basin in cfg["basins"]:
        if basin not in table:
            _fail(node, f"barriers are missing basin {basin}")
    return {"w": table, "v": {b: list(v) for b, v in table.items()}}


def _parse_cross(node, basins):
    out = {"lambda": {}, "mu": {}}
    sides = dict(_expect_mapping_keys(node, "cross", {"lambda", "mu"}))
    for side in ("lambda", "mu"):
        if side not in sides:
            continue
        for key, key_node, value in _expect_mapping(sides[side], f"cross.{side}"):
            if "->" not in str(key):
                _fail(key_node, f"cross key {key!r} must look like 'a->b'")
            a_text, b_text = str(key).split("->", 1)
            try:
                a, b = int(a_text), int(b_text)
            except ValueError:
                _fail(key_node, f"cross key {key!r} must name two basins")
            if a not in basins or b not in basins or a == b:
                _fail(key_node, f"cross key {key!r} must join two distinct basins")
            out[side][f"{a}->{b}"] = _expect_number(value, f"cross.{side}.{key}")
    return out


def _expect_mapping_keys(node, what, allowed):
    entries = _expect_mapping(node, what)
    for key, key_node, _ in entries:
        if key not in allowed:
            _fail(key_node, f"unknown key {key!r} in {what}")
    return [(key, value) for key, _, value in entries]


def _parse_int_key(key, key_node) -> int:
    if isinstance(key, int) and not isinstance(key, bool):
        return key
    try:
        return int(str(key))
    except ValueError:
        _fail(key_node, f"key {key!r} must be a basin number")


def _parse_datum(node):
    value = _to_python(node)
    if isinstance(value, str):
        if value == "uniform" or value.startswith(("delta:", "ivp2:")):
            return value
        _fail(node, f"datum {value!r} is not 'uniform', 'delta:<cell>' or 'ivp2:<params>'")
    if isinstance(value, dict):
        out = {}
        for key, key_node, cells in _expect_mapping(node, "datum"):
            basin = _parse_int_key(key, key_node)
            out[basin] = _expect_number_list(cells, f"datum.{basin}")
        return out
    _fail(node, "datum must be a preset string or a basin-to-values mapping")


def dump_config(cfg: dict) -> str:
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=None)


# ---------------------------------------------------------------- build


def spec_from_config(cfg: dict, convention: str | None = None) -> NetworkSpec:
    p = cfg["prime"]
    basins = tuple(cfg["basins"])
    kernels = cfg["kernels"]
    cross_lambda = {}
    cross_mu = {}
    for key, rate in cfg["cross"]["lambda"].items():
        a, b = key.split("->")
        cross_lambda[(int(a), int(b))] = rate
    for key, rate in cfg["cross"]["mu"].items():
        a, b = key.split("->")
        cross_mu[(int(a), int(b))] = rate
    return NetworkSpec(
        p=p,
        basins=basins,
        cross_lambda=cross_lambda,
        cross_mu=cross_mu,
        w_kernels={b: RadialKernel(p, tuple(kernels["w"][b])) for b in basins},
        v_kernels={b: RadialKernel(p, tuple(kernels["v"][b])) for b in basins},
        convention=convention or cfg.get("convention", "derived"),
    )


def resolution_from_config(cfg: dict, spec: NetworkSpec) -> int:
    if "resolution" in cfg:
        return cfg["resolution"]
    j_max = max(
        max(k.j_max for k in spec.w_kernels.values()),
        max(k.j_max for k in spec.v_kernels.values()),
    )
    return max(j_max, 1)


def _ivp2_fields(text: str) -> dict:
    fields = {}
    for part in text.split(","):
        if "=" not in part:
            raise ConfigError(f"ivp2 parameter {part!r} must look like name=value")
        name, value = part.split("=", 1)
        fields[name.strip()] = value.strip()
    if set(fields) != {"r", "amplitude"}:
        raise ConfigError("ivp2 takes exactly the parameters r and amplitude")
    try:
        return {"r": int(fields["r"]), "amplitude": float(fields["amplitude"])}
    except ValueError as exc:
        raise ConfigError(f"bad ivp2 parameters: {exc}") from exc


def scenario_from_config(cfg: dict, spec: NetworkSpec) -> FoldingScenario:
    datum = cfg.get("datum", "")
    if not (isinstance(datum, str) and datum.startswith("ivp2:")):
        raise ConfigError("this command needs datum: 'ivp2:r=<int>,amplitude=<float>'")
    fields = _ivp2_fields(datum[len("ivp2:"):])
    return FoldingScenario(
        spec=spec,
        r=fields["r"],
        amplitude=fields["amplitude"],
        threshold=cfg.get("threshold", 0.99),
    )


def datum_from_config(cfg: dict, spec: NetworkSpec, depth: int) -> CellFunction:
    datum = cfg.get("datum", "uniform")
    if isinstance(datum, dict):
        return CellFunction(spec.p, depth, {b: datum[b] for b in datum})
    if datum == "uniform":
        return CellFunction.constant(spec.p, depth, spec.basins, 1.0)
    if datum.startswith("delta:"):
        label = datum[len("delta:"):]
        cell = parse_cell_label(label, spec.p, None)
        if cell.depth > depth:
            raise ConfigError(
                f"datum cell {label!r} is deeper than the working depth {depth}"
            )
        if cell.basin not in spec.basins:
            raise ConfigError(
                f"datum cell {label!r} lies in basin {cell.basin}, "
                f"which is not in basins {list(spec.basins)}"
            )
        delta = CellFunction.indicator(spec.p, depth, cell.basin, cell.digits)
        zero = np.zeros(spec.p ** (depth - 1))
        return CellFunction(spec.p, depth, {b: delta.table.get(b, zero) for b in spec.basins})
    if datum.startswith("ivp2:"):
        scenario = scenario_from_config(cfg, spec)
        if depth < 1 - scenario.r:
            raise ConfigError(
                f"resolution {depth - 1} is too coarse for the bump at r = {scenario.r}"
            )
        return ivp2_datum(scenario, depth)
    raise ConfigError(f"unsupported datum {datum!r}")


# ---------------------------------------------------------------- output


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"
    return str(x)


def emit_plotdata(name: str, times, series: dict, out_dir: str):
    """Write one time-indexed family of series twice: a long-format CSV
    and a gnuplot-style columns file.  Column order follows the dict."""
    long_path = f"{out_dir}/{name}.csv"
    with open(long_path, "w") as f:
        f.write("t,series,value\n")
        for i, t in enumerate(times):
            for label, values in series.items():
                f.write(f"{_fmt(float(t))},{label},{_fmt(float(values[i]))}\n")
    cols_path = f"{out_dir}/{name}.dat"
    with open(cols_path, "w") as f:
        f.write("# t " + " ".join(series.keys()) + "\n")
        for i, t in enumerate(times):
            row = " ".join(_fmt(float(values[i])) for values in series.values())
            f.write(f"{_fmt(float(t))} {row}\n")
    return [long_path, cols_path]


def _density_series(state, times):
    cells = enumerate_cells(state.spec.p, state.R + 1)
    series = {}
    for t in times:
        out = spectral.eval_density(state, t)
        for basin in out.basins:
            for digits, value in zip(cells, out.table[basin]):
                label = CellAddress(basin, digits).label()
                series.setdefault(label, []).append(value)
    return series


# ---------------------------------------------------------------- commands


def _run_classify(cfg, spec, args) -> int:
    result = classify(spec)
    g1 = "{" + ", ".join(str(b) for b in result.g1) + "}"
    g2 = "{" + ", ".join(str(b) for b in result.g2) + "}"
    lines = [f"G1 = {g1}", f"G2 = {g2}"]
    if result.is_conservative_matrix:
        lines.append("conservative Markov semigroup: generator rows sum to zero")
    elif result.dies_at_infinity:
        lines.append("substochastic semigroup, strictly dying: all mass decays")
    else:
        lines.append("substochastic semigroup")
    print("\n".join(lines))
    record = {
        "g1": list(result.g1),
        "g2": list(result.g2),
        "is_conservative_matrix": result.is_conservative_matrix,
        "dies_at_infinity": result.dies_at_infinity,
        "is_substochastic": result.is_substochastic,
        "is_m_matrix": result.is_m_matrix,
    }
    with open(f"{args.out}/classification.json", "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def _run_solve(cfg, spec, args) -> int:
    R = resolution_from_config(cfg, spec)
    depth = R + 1
    datum = datum_from_config(cfg, spec, depth)
    state = spectral.init(spec, datum, R=R, probabilistic=False)
    times = cfg.get("times", [0.0, 1.0])
    series = _density_series(state, times)
    files = emit_plotdata("density", times, series, args.out)
    rates_path = f"{args.out}/decay_rates.csv"
    with open(rates_path, "w") as f:
        f.write("basin,r,rate,tau4,tau1\n")
        for d in spectral.decay_rates(spec, R):
            f.write(
                f"{d.basin},{d.r},{_fmt(d.s)},{_fmt(d.sigma4)},{_fmt(d.sigma1)}\n"
            )
    files.append(rates_path)
    print("wrote " + ", ".join(files))
    return 0


def _run_tau(cfg, spec, args) -> int:
    R = resolution_from_config(cfg, spec)
    datum = datum_from_config(cfg, spec, R + 1)
    threshold = cfg.get("threshold", 0.99)
    result = spectral.absorbing_time(spec, datum, threshold=threshold)
    cell = result.crossing_cell.label() if result.crossing_cell else "-"
    if result.mode_basin is None:
        mode = "-"
    elif result.mode_index is None:
        mode = f"constant mode of basin {result.mode_basin}"
    else:
        mode = f"oscillating mode {result.mode_index} of basin {result.mode_basin}"
    lines = [
        f"threshold = {_fmt(threshold)}",
        f"tau = {_fmt(result.tau)}",
        f"crossing cell = {cell}",
        f"dominant mode = {mode}",
        f"grid dt = {_fmt(result.dt)}",
        f"search horizon = {_fmt(result.t_max)}",
    ]
    text = "\n".join(lines)
    print(text)
    with open(f"{args.out}/tau.txt", "w") as f:
        f.write(text + "\n")
    return 0


def _run_oracle(cfg, spec, args) -> int:
    R = resolution_from_config(cfg, spec)
    depth = R + 1
    datum = datum_from_config(cfg, spec, depth)
    times = cfg.get("times", [0.1, 1.0, 10.0])
    gaps = compare(spec, datum, depth, times)
    path = f"{args.out}/oracle.csv"
    with open(path, "w") as f:
        f.write("t,max_gap\n")
        for t, gap in zip(times, gaps):
            f.write(f"{_fmt(float(t))},{_fmt(gap)}\n")
    print(f"max gap over grid = {_fmt(max(gaps))}")
    return 0


def _run_simulate(cfg, spec, args) -> int:
    R = resolution_from_config(cfg, spec)
    depth = R + 1
    datum = datum_from_config(cfg, spec, depth)
    gen = discretize(spec, depth)
    times = cfg.get("record_times", cfg.get("times", [1.0]))
    sim_cfg = SimConfig(
        n_paths=cfg.get("paths", 10000),
        t_max=cfg.get("t_max", max(times) if times else 1.0),
        seed=cfg.get("seed", 0),
        record_times=tuple(times),
        threads=args.threads,
    )
    result = simulate(gen, datum, sim_cfg)
    path = f"{args.out}/mc.csv"
    with open(path, "w") as f:
        write_mc_csv(result, f)
    print(f"wrote {path} ({sim_cfg.n_paths} paths per start cell)")
    return 0


def _run_folding_demo(cfg, spec, args) -> int:
    scenario = scenario_from_config(cfg, spec)
    convention = args.convention or cfg.get("convention", "paper")
    report = folding_tau(scenario, convention=convention)
    lines = [
        f"coupling alpha = {_fmt(report.alpha)}",
        f"basin losses beta, gamma = {_fmt(report.beta)}, {_fmt(report.gamma)}",
        f"A = {_fmt(report.A)}",
        f"bump: r = {report.r}, amplitude = {_fmt(report.amplitude)}",
        f"threshold = {_fmt(report.threshold)}",
        f"convention = {report.convention}",
        f"tau (closed form) = {_fmt(report.tau_formula)}",
        f"tau (numeric crossing) = {_fmt(report.tau_numeric)}",
        f"crossing cell = "
        + (report.crossing.crossing_cell.label() if report.crossing.crossing_cell else "-"),
        f"time constant (chain) = {_fmt(report.time_constant_chain)}",
        f"time constant (mode) = {_fmt(report.time_constant_mode)}",
    ]
    text = "\n".join(lines)
    print(text)
    with open(f"{args.out}/folding.txt", "w") as f:
        f.write(text + "\n")

    datum = ivp2_datum(scenario)
    state = spectral.init(
        scenario.spec, datum, R=datum.depth - 1, convention=convention
    )
    if math.isfinite(report.tau_numeric) and report.tau_numeric > 0:
        horizon = 2 * report.tau_numeric
    else:
        horizon = 2 * abs(report.time_constant_mode)
    times = cfg.get("times") or [horizon * i / 40 for i in range(41)]
    series = {}
    for t in times:
        out = spectral.eval_density(state, t)
        for basin in out.basins:
            series.setdefault(f"basin-{basin}", []).append(out.basin_integral(basin) * spec.p)
    emit_plotdata("folding_timeseries", times, series, args.out)
    print(f"wrote {args.out}/folding_timeseries.csv")
    return 0


_COMMANDS = {
    "classify": _run_classify,
    "solve": _run_solve,
    "tau": _run_tau,
    "oracle": _run_oracle,
    "simulate": _run_simulate,
    "folding-demo": _run_folding_demo,
}


def list_presets() -> list:
    base = resources.files("ultranet").joinpath("presets")
    return sorted(path.name[: -len(".yaml")] for path in base.iterdir() if path.name.endswith(".yaml"))


def load_preset(name: str) -> str:
    path = resources.files("ultranet").joinpath("presets", f"{name}.yaml")
    if not path.is_file():
        raise UsageError(
            f"unknown preset {name!r}; available: {', '.join(list_presets())}"
        )
    return path.read_text()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ultranet",
        description="solve, classify and simulate ultrametric reaction networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        source = cmd.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", help="path to a YAML config")
        source.add_argument("--preset", help="name of a bundled config")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--convention", choices=CONVENTIONS, default=None)
        cmd.add_argument("--threads", type=int, default=1)
        cmd.add_argument(
            "--dump-normalized-config",
            action="store_true",
            help="print the normalized config and exit",
        )
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            try:
                with open(args.config) as f:
                    text = f.read()
            except OSError as exc:
                print(f"error: cannot read config: {exc}", file=sys.stderr)
                return 1
        else:
            text = load_preset(args.preset)
        cfg = parse_config(text)
        if args.dump_normalized_config:
            print(dump_config(cfg), end="")
            return 0
        os.makedirs(args.out, exist_ok=True)
        spec = spec_from_config(cfg, convention=args.convention)
        return _COMMANDS[args.command](cfg, spec, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
