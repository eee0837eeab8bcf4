"""Batch front end: config ingestion and the command-line subcommands.

Configs are YAML.  Parsing walks the composed node tree rather than the
plain loaded data so every complaint can point at a line number, and
unknown keys are rejected instead of ignored.  libyaml scans the text and
emits the normalized dump; PyYAML's own composer builds the node tree.

The model (network, kernels, padic) and the numeric layers load on
first use, so a config dump, a config error or a usage error imports
only PyYAML and the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import math
import os
import re
import sys
from collections.abc import Hashable

import yaml
from yaml.composer import Composer
from yaml.constructor import SafeConstructor
from yaml.resolver import Resolver

try:
    from yaml.cyaml import CParser, CSafeDumper
except ImportError:
    raise ImportError(
        "ultranet needs PyYAML built with libyaml: yaml.cyaml does not import"
    ) from None

from . import CONVENTIONS
from .errors import NumericError, UsageError, ValidationError


def _lazy(name: str):
    """The module `name`, whose body runs on first attribute access.

    A config dump needs neither the model nor numpy, and classify needs
    no numpy, so the model and the numeric layers wait until a command
    reads one of them. A module that is already imported is returned as
    it is: a second copy would carry classes of its own, and isinstance
    would fail across the two."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    setattr(sys.modules[package], child, module)
    return module


network = _lazy("ultranet.network")
kernels = _lazy("ultranet.kernels")
padic = _lazy("ultranet.padic")
spectral = _lazy("ultranet.spectral")
binary = _lazy("ultranet.binary")
montecarlo = _lazy("ultranet.montecarlo")
tree = _lazy("ultranet.tree")
wavelets = _lazy("ultranet.wavelets")


class ConfigError(ValidationError):
    pass


# ---------------------------------------------------------------- yaml


class _ConfigLoader(CParser, Composer, SafeConstructor, Resolver):
    """libyaml's parser under PyYAML's pure-Python composer.

    yaml.CSafeLoader composes in C and recurses with no depth check, so a
    deeply nested document crashes the interpreter; this composer raises
    RecursionError instead, which parse_config reports."""

    check_node = Composer.check_node
    get_node = Composer.get_node
    get_single_node = Composer.get_single_node

    def __init__(self, text: str):
        CParser.__init__(self, text)
        Composer.__init__(self)
        SafeConstructor.__init__(self)
        Resolver.__init__(self)


def _line(node) -> int:
    return node.start_mark.line + 1


def _fail(node, message: str):
    raise ConfigError(f"line {_line(node)}: {message}")


def _to_python(loader, node):
    """Convert a composed node to plain data. Scalars are read as YAML 1.1
    reads them (017 is octal, 1:30 is sexagesimal, .inf is a float)."""
    if isinstance(node, yaml.ScalarNode):
        try:
            return loader.construct_object(node)
        except (yaml.YAMLError, ValueError, LookupError, AttributeError):
            # an explicit tag the text does not fit, such as !!int abc
            _fail(node, f"cannot read {node.value!r} as {node.tag}")
    if isinstance(node, yaml.SequenceNode):
        return [_to_python(loader, child) for child in node.value]
    if isinstance(node, yaml.MappingNode):
        out = {}
        for key_node, value_node in node.value:
            key = _to_python(loader, key_node)
            if not isinstance(key, Hashable):
                _fail(key_node, "a mapping key must be a single value")
            out[key] = _to_python(loader, value_node)
        return out
    _fail(node, "unsupported structure")


def _expect_mapping(node, what: str):
    """(key text, key node, value node) per entry, each key once."""
    if not isinstance(node, yaml.MappingNode):
        _fail(node, f"{what} must be a mapping")
    seen = set()
    for key, _ in node.value:
        if not isinstance(key, yaml.ScalarNode):
            _fail(key, f"keys of {what} must be single values")
        if key.value in seen:
            _fail(key, f"duplicate key {key.value!r} in {what}")
        seen.add(key.value)
    return [(key.value, key, value) for key, value in node.value]


def _expect_basin_mapping(node, what: str):
    """{basin: value node} of a basin-keyed mapping. Keys are compared as
    basin numbers, so 0 and 00 are one basin and may not both appear."""
    out = {}
    for key, key_node, value in _expect_mapping(node, what):
        basin = _parse_int_key(key, key_node)
        if basin in out:
            _fail(key_node, f"duplicate key {key!r} in {what}: basin {basin} is given twice")
        out[basin] = (key_node, value)
    return out


def _yaml_float_spelling(text: str):
    """How to write text so YAML 1.1 reads it as a float (1e-3 -> 1.0e-3,
    1.0e300 -> 1.0e+300): a dot in the mantissa and a signed exponent.
    None when text is no finite number in any spelling."""
    mantissa, _, exponent = text.lower().partition("e")
    if "." not in mantissa:
        mantissa += ".0"
    if exponent and exponent[0] not in "+-":
        exponent = "+" + exponent
    spelling = f"{mantissa}e{exponent}" if exponent else mantissa
    try:
        value = float(text)
        read = _ConfigLoader(spelling).get_single_data()
    except (ValueError, yaml.YAMLError):
        return None
    if isinstance(read, float) and read == value and math.isfinite(value):
        return spelling
    return None


def _expect_number(loader, node, what: str) -> float:
    value = _to_python(loader, node)
    spelling = _yaml_float_spelling(value) if isinstance(value, str) else None
    if spelling:
        _fail(
            node,
            f"{what} must be a number, got the string {value!r}; write {spelling}, "
            "which YAML 1.1 reads as a float (it needs a dot, and a sign on any exponent)",
        )
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(node, f"{what} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        _fail(node, f"{what} must be finite, got {node.value}")
    return value


def _expect_int(loader, node, what: str) -> int:
    value = _to_python(loader, node)
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(node, f"{what} must be an integer")
    return value


_FLOAT_TAG = "tag:yaml.org,2002:float"


def _expect_number_list(loader, node, what: str) -> list:
    """The entries as floats. A float-tagged scalar that float() reads as
    a finite number takes that one call: PyYAML's constructor drops its
    underscores and a sign and ends in float() of the same digits, and
    float() takes an underscore only between digits, where dropping it
    changes nothing. Every other entry (.inf, 1:30.5, 1__0.5, an int, a
    string) goes through _expect_number, with its reading and message."""
    if not isinstance(node, yaml.SequenceNode):
        _fail(node, f"{what} must be a list")
    out = []
    for child in node.value:
        if child.tag == _FLOAT_TAG and isinstance(child, yaml.ScalarNode):
            try:
                value = float(child.value)
            except ValueError:
                value = math.nan
            if math.isfinite(value):
                out.append(value)
                continue
        out.append(_expect_number(loader, child, f"{what} entry"))
    return out


def _expect_times(loader, node, what: str) -> list:
    times = _expect_number_list(loader, node, what)
    if not times:
        _fail(node, f"{what} must not be empty")
    if any(t < 0 for t in times) or times != sorted(times):
        _fail(node, f"{what} must be sorted and non-negative")
    return times


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
    loader = _ConfigLoader(text)
    try:
        root = loader.get_single_node()
    except yaml.reader.ReaderError as exc:
        # a character the reader refuses carries only its offset, in
        # UTF-8 bytes
        before = text.encode()[: exc.position].decode(errors="ignore")
        line = 1 + len(re.findall(r"\r\n|[\r\n\x85\u2028\u2029]", before))
        what = str(exc).splitlines()[0]
        raise ConfigError(f"not valid YAML: line {line}: {what}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    if root is None:
        raise ConfigError("the config document is empty")
    cfg: dict = {}
    seen = {}
    for key, key_node, value in _expect_mapping(root, "the config"):
        if key not in _TOP_KEYS:
            _fail(key_node, f"unknown key {key!r}")
        seen[key] = value

    if "prime" not in seen:
        raise ConfigError("missing required key 'prime'")
    if "basins" not in seen:
        raise ConfigError("missing required key 'basins'")
    cfg["prime"] = _expect_int(loader, seen["prime"], "prime")

    basins_node = seen["basins"]
    if not isinstance(basins_node, yaml.SequenceNode):
        _fail(basins_node, "basins must be a list")
    cfg["basins"] = [_expect_int(loader, b, "basin") for b in basins_node.value]

    if "convention" in seen:
        conv = _to_python(loader, seen["convention"])
        if conv not in CONVENTIONS:
            _fail(seen["convention"], f"convention must be one of {CONVENTIONS}")
        cfg["convention"] = conv

    if "kernels" in seen and "arrhenius" in seen:
        _fail(seen["arrhenius"], "give either kernels or arrhenius, not both")
    if "kernels" in seen:
        cfg["kernels"] = _parse_kernels(loader, seen["kernels"], cfg["basins"])
    elif "arrhenius" in seen:
        cfg["kernels"] = _parse_arrhenius(loader, seen["arrhenius"], cfg)
    else:
        raise ConfigError("missing kernel definitions: add 'kernels' or 'arrhenius'")

    cfg["cross"] = {"lambda": {}, "mu": {}}
    if "cross" in seen:
        cfg["cross"] = _parse_cross(loader, seen["cross"], cfg["basins"])

    if "resolution" in seen:
        r = _expect_int(loader, seen["resolution"], "resolution")
        if r < 1:
            _fail(seen["resolution"], "resolution must be >= 1")
        cfg["resolution"] = r
    if "datum" in seen:
        cfg["datum"] = _parse_datum(loader, seen["datum"], cfg)
    for key in ("times", "record_times"):
        if key in seen:
            cfg[key] = _expect_times(loader, seen[key], key)
    if "threshold" in seen:
        cfg["threshold"] = _expect_number(loader, seen["threshold"], "threshold")
    if "seed" in seen:
        cfg["seed"] = _expect_int(loader, seen["seed"], "seed")
    if "paths" in seen:
        cfg["paths"] = _expect_int(loader, seen["paths"], "paths")
    if "t_max" in seen:
        cfg["t_max"] = _expect_number(loader, seen["t_max"], "t_max")
    return cfg


def _parse_kernels(loader, node, basins):
    out = {}
    sides = dict(_expect_mapping_keys(node, "kernels", {"w", "v"}))
    for side in ("w", "v"):
        if side not in sides:
            _fail(node, f"kernels must define {side!r}")
        table = {}
        entries = _expect_basin_mapping(sides[side], f"kernels.{side}")
        for basin, (key_node, value) in entries.items():
            if basin not in basins:
                _fail(key_node, f"kernel basin {basin} is not in basins")
            table[basin] = _expect_number_list(loader, value, f"kernels.{side}.{basin}")
        for basin in basins:
            if basin not in table:
                _fail(node, f"kernels.{side} is missing basin {basin}")
        out[side] = table
    return out


def _parse_arrhenius(loader, node, cfg):
    fields = dict(_expect_mapping_keys(node, "arrhenius", {"kT", "barriers"}))
    if "kT" not in fields or "barriers" not in fields:
        _fail(node, "arrhenius needs both kT and barriers")
    kT = _expect_number(loader, fields["kT"], "kT")
    table = {}
    for basin, (key_node, value) in _expect_basin_mapping(fields["barriers"], "barriers").items():
        barriers = _expect_number_list(loader, value, f"barriers.{basin}")
        try:
            kernel = kernels.arrhenius_kernel(cfg["prime"], tuple(barriers), kT)
        except (UsageError, ValidationError) as exc:
            _fail(key_node, str(exc))
        except OverflowError:
            _fail(key_node, f"barriers.{basin}: a rate exp(-U/kT) exceeds the float range")
        table[basin] = list(kernel.levels)
    for basin in cfg["basins"]:
        if basin not in table:
            _fail(node, f"barriers are missing basin {basin}")
    return {"w": table, "v": {b: list(v) for b, v in table.items()}}


def _parse_cross(loader, node, basins):
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
            if f"{a}->{b}" in out[side]:
                _fail(key_node, f"duplicate key {key!r} in cross.{side}: {a}->{b} is given twice")
            out[side][f"{a}->{b}"] = _expect_number(loader, value, f"cross.{side}.{key}")
    return out


def _expect_mapping_keys(node, what, allowed):
    entries = _expect_mapping(node, what)
    for key, key_node, _ in entries:
        if key not in allowed:
            _fail(key_node, f"unknown key {key!r} in {what}")
    return [(key, value) for key, _, value in entries]


def _parse_int_key(key: str, key_node) -> int:
    try:
        return int(key)
    except ValueError:
        _fail(key_node, f"key {key!r} must be a basin number")


def _parse_datum(loader, node, cfg):
    """The datum as given, after checking a preset string against the
    prime and basins parsed before it, so a bad one is refused with its
    line. The depth of a delta cell is checked once the depth is known."""
    if isinstance(node, yaml.MappingNode):
        return {
            basin: _expect_number_list(loader, cells, f"datum.{basin}")
            for basin, (_, cells) in _expect_basin_mapping(node, "datum").items()
        }
    value = _to_python(loader, node)
    if isinstance(value, str):
        if not (value == "uniform" or value.startswith(("delta:", "ivp2:"))):
            _fail(node, f"datum {value!r} is not 'uniform', 'delta:<cell>' or 'ivp2:<params>'")
        kind, _, rest = value.partition(":")
        try:
            if kind == "delta":
                basin = padic.parse_cell_label(rest, cfg["prime"]).basin
                if basin not in cfg["basins"]:
                    raise ValidationError(
                        f"datum cell {rest!r} lies in basin {basin}, "
                        f"which is not in basins {cfg['basins']}"
                    )
            elif kind == "ivp2":
                _ivp2_fields(rest)
        except ValidationError as exc:
            _fail(node, str(exc))
        return value
    _fail(node, "datum must be a preset string or a basin-to-values mapping")


def dump_config(cfg: dict) -> str:
    return yaml.dump(cfg, Dumper=CSafeDumper, sort_keys=True, default_flow_style=None)


# ---------------------------------------------------------------- build


def spec_from_config(cfg: dict, convention: str | None = None) -> network.NetworkSpec:
    p = cfg["prime"]
    basins = tuple(cfg["basins"])
    levels = cfg["kernels"]
    cross_lambda = {}
    cross_mu = {}
    for key, rate in cfg["cross"]["lambda"].items():
        a, b = key.split("->")
        cross_lambda[(int(a), int(b))] = rate
    for key, rate in cfg["cross"]["mu"].items():
        a, b = key.split("->")
        cross_mu[(int(a), int(b))] = rate
    return network.NetworkSpec(
        p=p,
        basins=basins,
        cross_lambda=cross_lambda,
        cross_mu=cross_mu,
        w_kernels={b: kernels.RadialKernel(p, tuple(levels["w"][b])) for b in basins},
        v_kernels={b: kernels.RadialKernel(p, tuple(levels["v"][b])) for b in basins},
        convention=convention or cfg.get("convention", "derived"),
    )


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


def scenario_from_config(cfg: dict, spec: network.NetworkSpec) -> binary.FoldingScenario:
    datum = cfg.get("datum", "")
    if not (isinstance(datum, str) and datum.startswith("ivp2:")):
        raise ConfigError("this command needs datum: 'ivp2:r=<int>,amplitude=<float>'")
    fields = _ivp2_fields(datum[len("ivp2:"):])
    return binary.FoldingScenario(
        spec=spec,
        r=fields["r"],
        amplitude=fields["amplitude"],
        threshold=cfg.get("threshold", spectral.DEFAULT_THRESHOLD),
    )


def datum_from_config(cfg: dict, spec: network.NetworkSpec) -> wavelets.CellFunction:
    """The initial datum on depth-(R + 1) cells. The resolution R is the
    config's, or else the deepest kernel level."""
    R = cfg.get("resolution") or spec.j_max
    depth = R + 1
    datum = cfg.get("datum", "uniform")
    if isinstance(datum, dict):
        basins = sorted(datum)
        return wavelets.CellFunction(spec.p, depth, basins, [datum[b] for b in basins])
    if datum == "uniform":
        return wavelets.CellFunction.constant(spec.p, depth, spec.basins, 1.0)
    if datum.startswith("delta:"):
        label = datum[len("delta:"):]
        cell = padic.parse_cell_label(label, spec.p)
        if cell.depth > depth:
            raise ConfigError(
                f"datum cell {label!r} is deeper than the working depth {depth}"
            )
        return wavelets.CellFunction.indicator(spec.p, depth, spec.basins, cell)
    if datum.startswith("ivp2:"):
        scenario = scenario_from_config(cfg, spec)
        if depth < 1 - scenario.r:
            raise ConfigError(
                f"resolution {R} is too coarse for the bump at r = {scenario.r}"
            )
        return binary.ivp2_datum(scenario, depth)
    raise ConfigError(f"unsupported datum {datum!r}")


# ---------------------------------------------------------------- output


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def emit_plotdata(name: str, labels, rows, out_dir: str):
    """Write one time-indexed family of series twice, in one pass: a
    long-format CSV (t,series,value) and a gnuplot-style columns file.

    rows yields (t, values) one time at a time, values a 1-D array in
    label order; nothing is kept past its row, so memory does not grow
    with the number of times. Every number is spelled as _fmt spells it
    (17 significant digits, inf, -inf, nan). Both files are written
    under temporary names and renamed only after the last row; if
    anything fails on the way, the partial files are removed, so a
    failed run leaves neither.
    """
    paths = [f"{out_dir}/{name}.csv", f"{out_dir}/{name}.dat"]
    temps = [f"{path}.partial" for path in paths]
    try:
        with open(temps[0], "w") as long_f, open(temps[1], "w") as cols_f:
            long_f.write("t,series,value\n")
            cols_f.write("# t " + " ".join(labels) + "\n")
            for t, values in rows:
                t_text = _fmt(float(t))
                texts = [format(v, ".17g") for v in values.tolist()]
                long_f.writelines(
                    f"{t_text},{label},{text}\n" for label, text in zip(labels, texts)
                )
                cols_f.write(f"{t_text} {' '.join(texts)}\n")
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
        raise
    return paths


# ---------------------------------------------------------------- commands


def _run_classify(cfg, spec, args) -> int:
    import json

    result = network.classify(spec)
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
    datum = datum_from_config(cfg, spec)
    state = spectral.init(spec, datum)
    labels = [cell.label(spec.p) for cell in datum.cells()]
    times = cfg.get("times", [0.0, 1.0])
    rows = ((t, values.ravel()) for t, _, values in spectral.evaluate(state, times))
    files = emit_plotdata("density", labels, rows, args.out)
    rates_path = f"{args.out}/decay_rates.csv"
    with open(rates_path, "w") as f:
        f.write("basin,r,rate,tau4,tau1\n")
        for d in spectral.decay_rates(spec, datum.depth - 1):
            f.write(
                f"{d.basin},{d.r},{_fmt(d.s)},{_fmt(d.sigma4)},{_fmt(d.sigma1)}\n"
            )
    files.append(rates_path)
    print("wrote " + ", ".join(files))
    return 0


def _run_tau(cfg, spec, args) -> int:
    datum = datum_from_config(cfg, spec)
    threshold = cfg.get("threshold", spectral.DEFAULT_THRESHOLD)
    result = spectral.absorbing_time(spec, datum, threshold=threshold)
    cell = result.crossing_cell.label(spec.p) if result.crossing_cell else "-"
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
        f"search horizon = {_fmt(result.t_max)}",
    ]
    text = "\n".join(lines)
    print(text)
    with open(f"{args.out}/tau.txt", "w") as f:
        f.write(text + "\n")
    return 0


def _run_oracle(cfg, spec, args) -> int:
    datum = datum_from_config(cfg, spec)
    times = cfg.get("times", [0.1, 1.0, 10.0])
    gaps = tree.compare(spec, datum, times)
    path = f"{args.out}/oracle.csv"
    with open(path, "w") as f:
        f.write("t,max_gap\n")
        for t, gap in zip(times, gaps):
            f.write(f"{_fmt(float(t))},{_fmt(gap)}\n")
    print(f"max gap over grid = {_fmt(max(gaps))}")
    return 0


def _run_simulate(cfg, spec, args) -> int:
    times = cfg.get("record_times", cfg.get("times", [1.0]))
    sim_cfg = montecarlo.SimConfig(
        n_paths=cfg.get("paths", 10000),
        seed=cfg.get("seed", 0),
        record_times=tuple(times),
        threads=args.threads,
    )
    # checked, not read: every path stops at the last record time
    t_max = cfg.get("t_max", math.inf)
    if not t_max > 0:
        raise UsageError("t_max must be positive")
    if times[-1] > t_max:
        raise UsageError("record_times must not exceed t_max")
    # the chain is built only once the run settings are known to be good
    datum = datum_from_config(cfg, spec)
    gen = tree.discretize(spec, datum.depth)
    result = montecarlo.simulate(gen, datum, sim_cfg)
    path = f"{args.out}/mc.csv"
    with open(path, "w") as f:
        montecarlo.write_csv(result, f)
    print(f"wrote {path} ({sim_cfg.n_paths} paths per start cell)")
    return 0


def _run_folding_demo(cfg, spec, args) -> int:
    from dataclasses import replace

    spec = replace(spec, convention=args.convention or cfg.get("convention", "paper"))
    scenario = scenario_from_config(cfg, spec)
    report = binary.folding_tau(scenario)
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
        + (report.crossing.crossing_cell.label(spec.p) if report.crossing.crossing_cell else "-"),
        f"time constant (chain) = {_fmt(report.time_constant_chain)}",
        f"time constant (mode) = {_fmt(report.time_constant_mode)}",
    ]
    text = "\n".join(lines)
    print(text)

    state = spectral.init(spec, binary.ivp2_datum(scenario))
    if math.isfinite(report.tau_numeric) and report.tau_numeric > 0:
        horizon = 2 * report.tau_numeric
    else:
        horizon = 2 * abs(report.time_constant_mode)

    times = cfg.get("times", [horizon * i / 40 for i in range(41)])
    rows = ((t, mean) for t, mean, _ in spectral.evaluate(state, times))
    labels = [f"basin-{basin}" for basin in spec.basins]
    emit_plotdata("folding_timeseries", labels, rows, args.out)
    # written last, so a run that fails on the series publishes nothing
    with open(f"{args.out}/folding.txt", "w") as f:
        f.write(text + "\n")
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


def _preset_dir():
    from importlib import resources

    return resources.files("ultranet").joinpath("presets")


def list_presets() -> list:
    names = (path.name for path in _preset_dir().iterdir())
    return sorted(name[: -len(".yaml")] for name in names if name.endswith(".yaml"))


def load_preset(name: str) -> str:
    path = _preset_dir().joinpath(f"{name}.yaml")
    if not path.is_file():
        raise UsageError(
            f"unknown preset {name!r}; available: {', '.join(list_presets())}"
        )
    return path.read_text()


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


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
        cmd.add_argument("--threads", type=_positive_int, default=1)
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
    except MemoryError as exc:
        print(f"numeric failure: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
