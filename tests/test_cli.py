import gc
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ultranet import cli, spectral, tree
from ultranet.binary import ivp2_datum
from ultranet.cli import (
    ConfigError,
    _ConfigLoader,
    _run_solve,
    dump_config,
    list_presets,
    load_preset,
    main,
    parse_config,
    scenario_from_config,
    spec_from_config,
)
from chain_reference import dense_chain_builders
from wavelet_reference import cells, dense_details

MINIMAL = """\
prime: 2
basins: [0]
kernels:
  w: {0: [1.0]}
  v: {0: [1.0]}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- parsing


def test_parse_minimal():
    cfg = parse_config(MINIMAL)
    assert cfg["prime"] == 2
    assert cfg["basins"] == [0]
    assert cfg["kernels"]["w"][0] == [1.0]
    assert cfg["cross"] == {"lambda": {}, "mu": {}}


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 3: unknown key 'bogus'"):
        parse_config("prime: 2\nbasins: [0]\nbogus: 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key 'prime'"):
        parse_config("prime: 2\nprime: 3\nbasins: [0]\n")


TWO_BASINS = """\
prime: 2
basins: [0, 1]
kernels:
  w:
    0: [1.0]
    1: [1.0]
  v:
    0: [1.0]
    1: [1.0]
cross:
  lambda:
    0->1: 0.5
    1->0: 0.5
  mu:
    0->1: 0.5
    1->0: 0.5
resolution: 1
datum:
  0: [1.0, 0.0]
  1: [0.0, 1.0]
"""

ARRHENIUS = """\
prime: 2
basins: [0, 1]
arrhenius:
  kT: 1.0
  barriers:
    0: [1.0]
    1: [2.0]
resolution: 1
"""


@pytest.mark.parametrize(
    "base, after_line, repeat, message",
    [
        (TWO_BASINS, 6, "    0: [0.5]", "duplicate key '0' in kernels.w"),
        (TWO_BASINS, 9, "    01: [0.5]", "duplicate key '01' in kernels.v: basin 1 is given twice"),
        (TWO_BASINS, 13, "    0->1: 0.25", "duplicate key '0->1' in cross.lambda"),
        (TWO_BASINS, 16, "    1->00: 0.25", "duplicate key '1->00' in cross.mu: 1->0 is given twice"),
        (ARRHENIUS, 7, "    '0': [3.0]", "duplicate key '0' in barriers"),
        (TWO_BASINS, 20, "  '1': [0.5, 0.5]", "duplicate key '1' in datum"),
    ],
    ids=["kernels.w", "kernels.v", "cross.lambda", "cross.mu", "arrhenius.barriers", "datum"],
)
def test_repeated_key_in_a_nested_mapping_exits_2(capsys, tmp_path, base, after_line, repeat,
                                                 message):
    # the last repeat used to win silently, with exit 0
    lines = base.splitlines(keepends=True)
    lines.insert(after_line, repeat + "\n")
    path = tmp_path / "repeat.yaml"
    path.write_text("".join(lines))
    code, _, err = run(capsys, "solve", "--config", str(path), "--out", str(tmp_path))
    assert code == 2
    assert f"line {after_line + 1}: {message}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["repeat.yaml"]


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="missing required key 'prime'"):
        parse_config("basins: [0]\n")
    with pytest.raises(ConfigError, match="missing required key 'basins'"):
        parse_config("prime: 2\n")
    with pytest.raises(ConfigError, match="kernel definitions"):
        parse_config("prime: 2\nbasins: [0]\n")


def test_empty_and_invalid_documents():
    with pytest.raises(ConfigError, match="empty"):
        parse_config("# only a comment\n")
    for text, line in (
        ("prime: [unclosed\n", 2),  # an unclosed flow sequence, found at the stream end
        ("prime: 2\nbasins:\n\t- 0\n", 3),  # a tab indent
        ("prime: &a 2\nbasins: &a [0]\n", 2),  # a duplicate anchor
    ):
        with pytest.raises(ConfigError, match=rf"^not valid YAML: (?s:.*)\bline {line}\b"):
            parse_config(text)


def test_bad_cross_keys():
    base = MINIMAL.replace("[0]", "[0, 1]").replace(
        "w: {0: [1.0]}", "w: {0: [1.0], 1: [1.0]}"
    ).replace("v: {0: [1.0]}", "v: {0: [1.0], 1: [1.0]}")
    with pytest.raises(ConfigError, match="distinct basins"):
        parse_config(base + "cross:\n  mu: {0->0: 1.0}\n")
    with pytest.raises(ConfigError, match="must name two basins"):
        parse_config(base + "cross:\n  mu: {a->b: 1.0}\n")
    with pytest.raises(ConfigError, match="'a->b'"):
        parse_config(base + "cross:\n  mu: {zero: 1.0}\n")
    with pytest.raises(ConfigError, match="distinct basins"):
        parse_config(base + "cross:\n  mu: {0->7: 1.0}\n")


def test_kernels_must_cover_every_basin():
    text = MINIMAL.replace("basins: [0]", "basins: [0, 1]")
    with pytest.raises(ConfigError, match="missing basin 1"):
        parse_config(text)


def test_kernels_and_arrhenius_conflict():
    with pytest.raises(ConfigError, match="not both"):
        parse_config(MINIMAL + "arrhenius:\n  kT: 1.0\n  barriers: {0: [1.0]}\n")


def test_arrhenius_resolves_to_levels():
    cfg = parse_config(
        "prime: 2\nbasins: [0]\narrhenius:\n  kT: 2.0\n  barriers: {0: [1.0, 3.0]}\n"
    )
    assert cfg["kernels"]["w"][0] == pytest.approx(
        [math.exp(-0.5), math.exp(-1.5)], abs=0
    )
    assert cfg["kernels"]["v"] == cfg["kernels"]["w"]
    assert "arrhenius" not in cfg


def test_times_must_be_sorted():
    with pytest.raises(ConfigError, match="sorted"):
        parse_config(MINIMAL + "times: [1.0, 0.5]\n")
    with pytest.raises(ConfigError, match="sorted and non-negative"):
        parse_config(MINIMAL + "times: [-1.0, 0.5]\n")


@pytest.mark.parametrize(
    "text,hint", [("1e-3", "write 1.0e-3,"), ("1.0e300", "write 1.0e+300,"), ("soon", None)]
)
def test_float_without_yaml_1_1_spelling_gets_a_hint(capsys, tmp_path, text, hint):
    path = tmp_path / "cfg.yaml"
    path.write_text(MINIMAL + f"times: [0.0, {text}]\n")
    code, _, err = run(capsys, "solve", "--config", str(path), "--out", str(tmp_path))
    assert code == 2
    assert "line 6: times entry must be a number" in err
    assert (hint in err) if hint else ("write" not in err)


@pytest.mark.parametrize(
    "text,message",
    [("[]", "must not be empty"), ("[1.0, 0.5]", "must be sorted"), ("[-1.0, 0.5]", "must be sorted")],
)
def test_record_times_checked_with_line(capsys, tmp_path, text, message):
    path = tmp_path / "cfg.yaml"
    path.write_text(MINIMAL + f"record_times: {text}\n")
    code, _, err = run(capsys, "simulate", "--config", str(path), "--out", str(tmp_path))
    assert code == 2
    assert f"line 6: record_times {message}" in err


def test_bad_datum_string():
    with pytest.raises(ConfigError, match="datum"):
        parse_config(MINIMAL + "datum: gaussian\n")


def test_bad_convention():
    with pytest.raises(ConfigError, match="convention"):
        parse_config(MINIMAL + "convention: folklore\n")


def test_yaml_1_1_integers_parse():
    cfg = parse_config(MINIMAL + "seed: 017\npaths: 1:30\n")
    assert cfg["seed"] == 15  # octal
    assert cfg["paths"] == 90  # sexagesimal


@pytest.mark.parametrize("text", [".inf", "-.inf", ".nan", ".NaN", "1" + "0" * 400])
def test_non_finite_numbers_rejected_with_line(text):
    with pytest.raises(ConfigError, match="line 6: threshold must be finite"):
        parse_config(MINIMAL + f"threshold: {text}\n")


def test_non_finite_number_exits_2(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text(MINIMAL + "t_max: .inf\n")
    code, _, err = run(capsys, "classify", "--config", str(cfgfile), "--out", str(tmp_path))
    assert code == 2
    assert "line 6" in err


_SCALARS = st.sampled_from([
    ".inf", "-.inf", ".nan", "017", "08", "1:30", "0x1f", "0b101", "1_000", "~", "yes",
    "off", "2001-12-14", "1e999", "1.0e999", "3.5", "-2", "0", "1", "2", "0.5",
    "uniform", "delta:0.0", "delta:1.1", "delta:9.z", "ivp2:r=-2,amplitude=0.4",
    "paper", "derived", "'0->1'", "!!int abc", "!!float x", "!!bool maybe",
    "!!timestamp x", "!!binary ###", "!!set {a}", "!foo x", "[]", "{}", "*x",
])
_KEYS = st.sampled_from(["0", "1", "2", "w", "v", "lambda", "mu", "0->1", "1->0", "kT",
                         "barriers", "[1]", "!!set {a}", "1:30"])
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]")
        | st.dictionaries(_KEYS, inner, max_size=3).map(
            lambda d: "{" + ", ".join(f"{k}: {v}" for k, v in d.items()) + "}"
        )
    ),
    max_leaves=8,
)
_VALID = {
    "prime": "2",
    "basins": "[0, 1]",
    "kernels": "{w: {0: [1.0], 1: [1.0]}, v: {0: [1.0], 1: [1.0]}}",
    "cross": "{lambda: {0->1: 1.0, 1->0: 1.0}, mu: {0->1: 2.0, 1->0: 2.0}}",
}


@given(
    overrides=st.dictionaries(
        st.sampled_from(sorted(_VALID) + [
            "convention", "arrhenius", "resolution", "datum", "times", "threshold",
            "seed", "paths", "t_max", "record_times", "bogus",
        ]),
        _VALUES,
        max_size=4,
    ),
    anchor=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_parse_config_raises_only_config_error(overrides, anchor):
    entries = {**_VALID, **overrides}
    lines = [f"{key}: {value}" for key, value in entries.items()]
    if anchor:  # give *x something to refer to, itself included
        lines[-1] = lines[-1].replace(": ", ": &x ", 1)
    try:
        parse_config("\n".join(lines) + "\n")
    except ConfigError:
        pass


# A datum string that must be double-quoted (it is not ASCII) and is
# longer than a line. libyaml folds it at other spaces than PyYAML's own
# emitter does, so only its round trip is pinned.
_LONG_ESCAPED_DATUM = (
    MINIMAL + 'datum: "ivp2: r =   -1  ,' + " " * 40 + 'amplitude = １.５' + " " * 50 + '"\n'
)


def test_dump_round_trip_is_stable():
    for text in [load_preset(name) for name in list_presets()] + [_LONG_ESCAPED_DATUM]:
        cfg = parse_config(text)
        dumped = dump_config(cfg)
        assert parse_config(dumped) == cfg
        assert dump_config(parse_config(dumped)) == dumped


def _large_config_text() -> str:
    """A p = 5, R = 5 three-basin config with a 3 x 5^5 datum table."""
    rng = random.Random(5)
    basins = [0, 1, 2]
    levels = {b: [rng.uniform(0.5, 1.5) for _ in range(5)] for b in basins}
    cfg = {
        "prime": 5,
        "basins": basins,
        "kernels": {"w": levels, "v": {b: [2 * x for x in xs] for b, xs in levels.items()}},
        "cross": {
            "lambda": {"0->1": 0.25, "1->2": 1.0e-300},
            "mu": {"0->1": 0.5, "1->2": 5e-324, "2->0": rng.random()},
        },
        "resolution": 5,
        "datum": {b: [rng.random() for _ in range(5**5)] for b in basins},
        "times": [0.0, 1 / 3, 1.0e+300],
    }
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=None)


_EDGE_VALUES = MINIMAL + (
    'datum: "ivp2:   r   =   -1   ,   amplitude   =   1.5' + " " * 90 + '"\n'
    "threshold: 5.0e-324\nt_max: 1.0e+300\nseed: 123456789012345678901234567890\n"
)


def _tree(node):
    """A composed node as nested plain data: kind, tag, start line and
    column, and its scalar text or children."""
    mark = (type(node).__name__, node.tag, node.start_mark.line, node.start_mark.column)
    if isinstance(node, yaml.ScalarNode):
        return (*mark, node.value)
    if isinstance(node, yaml.SequenceNode):
        return (*mark, [_tree(child) for child in node.value])
    return (*mark, [(_tree(key), _tree(value)) for key, value in node.value])


@pytest.mark.parametrize(
    "text",
    [pytest.param(load_preset(name), id=name) for name in list_presets()]
    + [pytest.param(_large_config_text(), id="p5_R5_table"),
       pytest.param(_EDGE_VALUES, id="edge_values"),
       pytest.param(MINIMAL + "datum: ivp2:r=1,amplitude=１.５\n", id="non_ascii")],
)
def test_parse_and_dump_match_the_pure_python_yaml(text, monkeypatch):
    # the node tree libyaml's parser feeds the composer is PyYAML's own
    assert _tree(_ConfigLoader(text).get_single_node()) == _tree(yaml.compose(text))
    cfg = parse_config(text)
    monkeypatch.setattr(cli, "_ConfigLoader", yaml.SafeLoader)
    assert parse_config(text) == cfg
    assert dump_config(cfg) == yaml.safe_dump(cfg, sort_keys=True, default_flow_style=None)


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e300, -1e300, 1e-300]
)


@st.composite
def _exponent_spelling(draw):
    """A finite float as mantissa, e or E, and an exponent that may lack
    its + sign or the mantissa its dot."""
    mantissa, _, exponent = f"{draw(_FINITE):.{draw(st.integers(0, 17))}e}".partition("e")
    if draw(st.booleans()):
        mantissa = mantissa.replace(".", "")
    sign = "-" if exponent[0] == "-" else draw(st.sampled_from(["+", ""]))
    return f"{mantissa}{draw(st.sampled_from('eE'))}{sign}{exponent[1:]}"


@st.composite
def _underscored(draw):
    """A number spelling with underscores put anywhere: between digits,
    where float() takes them, or next to the dot, the sign or the end."""
    text = draw(_FINITE.map(repr) | st.sampled_from(["1.5", "10.25", "1.0e+3", "1:30.5"]))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "_" + text[at:]
    return text


_PLAIN_SPELLING = st.one_of(
    _FINITE.map(repr),
    _exponent_spelling(),
    _underscored(),
    st.sampled_from([
        ".5", "-.5", "1.", "+1.", "1:30.5", "-1:30.5", "190:20:30.15", "1e-3",
        ".inf", "-.Inf", "+.INF", ".NaN", "1.0e+309", "-1.0e+400",
    ]),
    st.integers(-(2**1100), 2**1100).map(str),
    st.sampled_from([str(2**1024), "017", "0x1F", "0b101", "1_000", "1:30"]),
)
_NUMBER_SPELLING = _PLAIN_SPELLING | st.tuples(
    st.sampled_from(["!!float {}", '"{}"', "'{}'", '!!float "{}"']), _PLAIN_SPELLING
).map(lambda form: form[0].format(form[1]))


def _every_entry_by_expect_number(loader, node, what):
    """_expect_number_list without its float() shortcut."""
    if not isinstance(node, yaml.SequenceNode):
        cli._fail(node, f"{what} must be a list")
    return [cli._expect_number(loader, child, f"{what} entry") for child in node.value]


def _parsed_or_error(text):
    try:
        return repr(parse_config(text))  # repr tells -0.0 from 0.0
    except ConfigError as exc:
        return f"ConfigError: {exc}"


@given(spellings=st.lists(_NUMBER_SPELLING, min_size=1, max_size=6))
@settings(max_examples=400, deadline=None)
def test_one_float_call_reads_what_pyyaml_reads(spellings):
    """The float() shortcut of _expect_number_list returns what PyYAML's
    constructor and _expect_number return, or fails with their message."""
    # the whole list, and each entry alone so that one bad entry does not
    # hide the others
    for row in [spellings] + [[text] for text in spellings]:
        flow = "[" + ", ".join(row) + "]"
        for text in (MINIMAL + f"times: {flow}\n", MINIMAL + f"datum: {{0: {flow}}}\n"):
            fast = _parsed_or_error(text)
            with mock.patch.object(cli, "_expect_number_list", _every_entry_by_expect_number):
                assert _parsed_or_error(text) == fast


def _python(*args):
    """Run a fresh interpreter that imports this checkout's ultranet."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_deep_nesting_exits_2_without_a_crash(tmp_path):
    """The pure-Python composer meets the depth as a RecursionError. A
    composer that recursed in C would kill the process instead, so the
    run is a subprocess."""
    path = tmp_path / "deep.yaml"
    path.write_text("basins: " + "[" * 200_000 + "\n")
    done = _python("-m", "ultranet.cli", "solve", "--config", str(path), "--out", str(tmp_path))
    assert done.returncode == 2, done.stderr
    assert "config error: the config nests too deeply" in done.stderr


_LAYERING = """\
import contextlib, io, sys
from ultranet.cli import _COMMANDS, list_presets, main
def exits(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse refuses a usage error
            return exc.code
names = list_presets()
dumps = {main([command, "--preset", name, "--dump-normalized-config"])
         for name in names for command in _COMMANDS}
with open(sys.argv[1] + "/bogus.yaml", "w") as f:
    f.write("prime: 2\\nbasins: [0]\\nbogus: 1\\n")
errors = [exits(["solve", "--config", sys.argv[1] + "/bogus.yaml"]),
          exits(["simulate", "--preset", names[0], "--threads", "0"])]
print("loaded:", dumps, errors, [m for m in ("fractions", "decimal", "json") if m in sys.modules])
classify = [main(["classify", "--preset", name, "--out", sys.argv[1]]) for name in names]
print("loaded:", classify, "numpy" in sys.modules)
tau = main(["tau", "--config", sys.argv[1] + "/flat.yaml", "--out", sys.argv[1]])
print("loaded:", tau, "numpy" in sys.modules)
solve = {main(["solve", "--preset", name, "--out", sys.argv[1]]) for name in names}
print("loaded:", solve, "concurrent.futures" in sys.modules)
simulate = {main(["simulate", "--preset", name, "--out", sys.argv[1], "--threads", "1"])
            for name in names}
print("loaded:", simulate, "concurrent.futures" in sys.modules)
"""


def test_classify_and_config_dumps_import_no_numpy(tmp_path):
    """The model and the numeric layers load on first use. A config dump,
    a config error and a usage error import none of fractions, decimal
    and json (the model's and classify's imports); classify imports no
    numpy, and nor does a tau that t = 0 answers as inf for a table
    datum. montecarlo imports concurrent.futures only for a simulate on
    more than one thread, so neither solve nor a 1-thread simulate
    loads it."""
    (tmp_path / "flat.yaml").write_text(FLAT_NETWORK)
    done = _python("-c", _LAYERING, str(tmp_path))
    assert done.returncode == 0, done.stderr
    config, exact, tau, solve, simulate = (
        line for line in done.stdout.splitlines() if line.startswith("loaded: ")
    )
    assert config == "loaded: {0} [2, 2] []"
    # folding_demo's paper-convention matrix is not substochastic: exit 3
    classify = [3 if name == "folding_demo" else 0 for name in list_presets()]
    assert exact == f"loaded: {classify} False"
    assert tau == "loaded: 0 False"
    assert solve == "loaded: {0} False"
    assert simulate == "loaded: {0} False"


def test_numeric_modules_imported_before_cli_are_the_ones_it_uses():
    """A second copy of a model or numeric module would carry classes of
    its own."""
    done = _python("-c", (
        "import sys\n"
        "from ultranet import network, spectral, wavelets\n"
        "from ultranet import kernels, padic\n"
        "from ultranet import cli\n"
        "names = ('network', 'kernels', 'padic', 'spectral', 'binary', 'montecarlo',\n"
        "         'tree', 'wavelets')\n"
        "cfg = cli.parse_config(cli.load_preset('single_basin'))\n"
        "spec = cli.spec_from_config(cfg)\n"
        "datum = cli.datum_from_config(cfg, spec)\n"
        "print(cli.network is network, cli.spectral is spectral, cli.wavelets is wavelets,\n"
        "      all(getattr(cli, name) is sys.modules['ultranet.' + name] for name in names),\n"
        "      isinstance(spec, sys.modules['ultranet.network'].NetworkSpec),\n"
        "      isinstance(datum, wavelets.CellFunction))\n"
    ))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True True True True True True\n"


def test_missing_libyaml_fails_at_import_in_one_line():
    done = _python("-c", "import sys; sys.modules['yaml.cyaml'] = None; import ultranet.cli")
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == (
        "ImportError: ultranet needs PyYAML built with libyaml: yaml.cyaml does not import"
    )


# ---------------------------------------------------------------- process entry


def test_main_leaves_the_collector_alone(capsys, tmp_path):
    """Only the process entry sets the collector's policy; a caller of
    main keeps its own, on success and on a config error."""
    before = gc.get_threshold(), gc.get_freeze_count()
    code, _, _ = run(capsys, "solve", "--preset", "single_basin", "--out", str(tmp_path))
    assert code == 0
    assert (gc.get_threshold(), gc.get_freeze_count()) == before
    bad = tmp_path / "bad.yaml"
    bad.write_text("prime: 2\nbasins: [0]\nbogus: 1\n")
    code, _, _ = run(capsys, "solve", "--config", str(bad), "--out", str(tmp_path))
    assert code == 2
    assert (gc.get_threshold(), gc.get_freeze_count()) == before


_PROCESS_ENTRY = """\
import atexit, gc, runpy, sys
atexit.register(lambda: print("gc:", gc.get_freeze_count() > 0, gc.get_threshold()))
sys.argv = ["ultranet", "solve", "--preset", "single_basin", "--out", sys.argv[1]]
runpy.run_module("ultranet.cli", run_name="__main__", alter_sys=True)
"""


def test_process_entry_freezes_the_heap_and_writes_what_main_writes(capsys, tmp_path):
    """`python -m ultranet.cli` raises the generation-0 threshold and
    freezes the heap before exit; its outputs are main's, byte for byte."""
    entry, direct = tmp_path / "entry", tmp_path / "direct"
    done = _python("-c", _PROCESS_ENTRY, str(entry))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "gc: True (100000, 50, 50)"
    code, _, _ = run(capsys, "solve", "--preset", "single_basin", "--out", str(direct))
    assert code == 0
    names = sorted(path.name for path in direct.iterdir())
    assert names and sorted(path.name for path in entry.iterdir()) == names
    for name in names:
        assert (entry / name).read_bytes() == (direct / name).read_bytes()


def test_the_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"ultranet": "ultranet.cli:run"}


# ---------------------------------------------------------------- exit codes


def test_missing_config_file_exits_1(capsys, tmp_path):
    code, _, err = run(
        capsys, "classify", "--config", "/no/such/file.yaml", "--out", str(tmp_path)
    )
    assert code == 1
    assert "cannot read config" in err


def test_bad_config_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("prime: 2\nbasins: [0]\nbogus: 1\n")
    code, _, err = run(capsys, "classify", "--config", str(bad), "--out", str(tmp_path))
    assert code == 2
    assert "unknown key" in err


def test_control_character_is_reported_by_line(capsys, tmp_path):
    # the reader reports such a character by offset only
    bad = tmp_path / "bel.yaml"
    bad.write_bytes(b"prime: 2\x07\nbasins: [0]\n")
    code, _, err = run(capsys, "classify", "--config", str(bad), "--out", str(tmp_path))
    assert code == 2
    assert "not valid YAML: line 1:" in err
    assert "#x0007" in err
    with pytest.raises(ConfigError, match=r"^not valid YAML: line 3: .*#x0001"):
        parse_config("prime: 2\r\nbasins: [0]\r\nseed: \x01\n")
    # the reader's offset counts UTF-8 bytes, not characters
    with pytest.raises(ConfigError, match=r"^not valid YAML: line 2: .*#x0001"):
        parse_config("x: '" + "\u00e9" * 10 + "'\nseed: \x01\nbasins: [0]")


def test_unknown_preset_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "classify", "--preset", "nope", "--out", str(tmp_path))
    assert code == 2
    assert "available" in err


def test_unclassifiable_spec_exits_3(capsys, tmp_path):
    # the folding demo deliberately violates the gain/loss balance that
    # the two classes are defined by
    code, _, err = run(
        capsys, "classify", "--preset", "folding_demo", "--out", str(tmp_path)
    )
    assert code == 3
    assert "numeric failure" in err


# ---------------------------------------------------------------- classify


def test_classify_conservative_preset(capsys, tmp_path):
    code, out, _ = run(
        capsys, "classify", "--preset", "conservative_two_basin", "--out", str(tmp_path)
    )
    assert code == 0
    assert out.splitlines() == [
        "G1 = {0, 1}",
        "G2 = {}",
        "conservative Markov semigroup: generator rows sum to zero",
    ]
    record = json.loads((tmp_path / "classification.json").read_text())
    assert record["g1"] == [0, 1]
    assert record["g2"] == []
    assert record["is_conservative_matrix"] is True
    assert record["is_substochastic"] is True


def test_classify_dying_preset(capsys, tmp_path):
    code, out, _ = run(
        capsys, "classify", "--preset", "dying_two_basin", "--out", str(tmp_path)
    )
    assert code == 0
    assert "G1 = {}" in out
    assert "G2 = {0, 1}" in out
    assert "strictly dying" in out
    record = json.loads((tmp_path / "classification.json").read_text())
    assert record["dies_at_infinity"] is True


def _classify(capsys, tmp_path, text):
    path = tmp_path / "net.yaml"
    path.write_text(text)
    code, out, err = run(capsys, "classify", "--config", str(path), "--out", str(tmp_path))
    assert code == 0, err
    return out.splitlines(), json.loads((tmp_path / "classification.json").read_text())


def test_classify_dying_preset_in_a_slow_unit_of_time(capsys, tmp_path):
    # every rate times 1e-12: still dying, never "conservative" and an M-matrix at once
    text = load_preset("dying_two_basin")
    for rate in ("[1.0]", ": 1.0\n", ": 4.0\n"):
        text = text.replace(rate, rate.replace(".0", ".0e-12"))
    assert text.count("e-12") == 8
    lines, record = _classify(capsys, tmp_path, text)
    assert lines == [
        "G1 = {}",
        "G2 = {0, 1}",
        "substochastic semigroup, strictly dying: all mass decays",
    ]
    assert record["dies_at_infinity"] is True
    assert record["is_m_matrix"] is True


def test_classify_judges_each_basin_at_its_own_scale(capsys, tmp_path):
    # basin 1 leaks 1e13 times slower than basin 0, but it leaks
    text = (
        "prime: 2\nbasins: [0, 1]\nkernels:\n"
        "  w: {0: [0.0], 1: [0.0]}\n  v: {0: [1.0e+6], 1: [1.0e-7]}\n"
    )
    lines, record = _classify(capsys, tmp_path, text)
    assert lines[:2] == ["G1 = {}", "G2 = {0, 1}"]
    assert (record["g1"], record["g2"], record["is_m_matrix"]) == ([], [0, 1], True)


# ---------------------------------------------------------------- solve


def test_solve_at_time_zero_echoes_datum(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text(MINIMAL + "datum: delta:0.0\ntimes: [0.0]\nresolution: 1\n")
    code, _, _ = run(capsys, "solve", "--config", str(cfgfile), "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "density.csv").read_text().splitlines()
    assert rows[0] == "t,series,value"
    values = {}
    for row in rows[1:]:
        t, label, value = row.split(",")
        assert t == "0"
        values[label] = float(value)
    assert values["0.0"] == pytest.approx(1.0, abs=1e-15)
    assert values["0.1"] == pytest.approx(0.0, abs=1e-15)


def test_delta_datum_on_two_basins_zero_fills_the_other(capsys, tmp_path):
    text = load_preset("conservative_two_basin").replace("datum: uniform", "datum: delta:1.1")
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text(text)
    code, _, err = run(capsys, "solve", "--config", str(cfgfile), "--out", str(tmp_path))
    assert code == 0, err
    at_zero = {}
    for row in (tmp_path / "density.csv").read_text().splitlines()[1:]:
        t, label, value = row.split(",")
        if t == "0":
            at_zero[label] = float(value)
    assert at_zero == {"0.0": 0.0, "0.1": 0.0, "1.0": 0.0, "1.1": 1.0}
    code, out, _ = run(capsys, "oracle", "--config", str(cfgfile), "--out", str(tmp_path))
    assert code == 0
    assert float(out.split("=")[1]) <= 1e-12


def _two_basins_at_p5(basins, datum):
    """A p = 5 network on the given two basins, with a basin-to-values datum
    written in the order given."""
    a, b = basins
    rows = ", ".join(f"{basin}: {values}" for basin, values in datum.items())
    return (
        f"prime: 5\nbasins: [{a}, {b}]\n"
        f"kernels:\n  w: {{{a}: [0.5], {b}: [1.0]}}\n  v: {{{a}: [1.0], {b}: [1.0]}}\n"
        f"cross: {{lambda: {{{a}->{b}: 0.5, {b}->{a}: 0.25}}, mu: {{{a}->{b}: 1.0, {b}->{a}: 1.5}}}}\n"
        f"datum: {{{rows}}}\n"
        "threshold: 0.99\nseed: 3\npaths: 200\nt_max: 1.0\nrecord_times: [0.5, 1.0]\n"
    )


@pytest.mark.parametrize("command", ["solve", "oracle", "tau", "simulate"])
@pytest.mark.parametrize(
    "covered", [[0], [0, 1, 3]], ids=["missing_basin", "extra_basin"]
)
def test_datum_on_other_basins_exits_2(capsys, tmp_path, command, covered):
    datum = {basin: [0.5] * 5 for basin in covered}
    path = tmp_path / "cfg.yaml"
    path.write_text(_two_basins_at_p5((0, 1), datum) + "resolution: 1\n")
    code, _, err = run(capsys, command, "--config", str(path), "--out", str(tmp_path))
    assert code == 2
    assert f"datum covers basins {covered}, network has [0, 1]" in err


def test_basins_that_do_not_start_at_zero(capsys, tmp_path):
    rng = random.Random(13)
    datum = {basin: [round(rng.uniform(0.0, 1.0), 6) for _ in range(25)] for basin in (3, 1)}
    path = tmp_path / "cfg.yaml"
    path.write_text(_two_basins_at_p5((1, 3), datum) + "resolution: 2\ntimes: [0.0, 0.5]\n")
    out = tmp_path / "out"
    code, _, err = run(capsys, "solve", "--config", str(path), "--out", str(out))
    assert code == 0, err
    labels = [f"{basin}.{a}{b}" for basin in (1, 3) for a in range(5) for b in range(5)]
    rows = [row.split(",") for row in (out / "density.csv").read_text().splitlines()[1:]]
    assert [label for t, label, _ in rows if t == "0"] == labels
    at_zero = [float(value) for t, _, value in rows if t == "0"]
    assert at_zero == pytest.approx(datum[1] + datum[3], abs=1e-12)
    assert (out / "density.dat").read_text().splitlines()[0] == "# t " + " ".join(labels)

    code, stdout, _ = run(capsys, "oracle", "--config", str(path), "--out", str(out))
    assert code == 0
    assert float(stdout.split("=")[1]) <= 1e-9

    code, _, _ = run(capsys, "simulate", "--config", str(path), "--out", str(out))
    assert code == 0
    mc = [row.split(",") for row in (out / "mc.csv").read_text().splitlines()[1:]]
    assert [state for t, state, *_ in mc if t == "0.5"] == labels


def test_delta_datum_outside_the_basins_exits_2(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text(MINIMAL + "datum: delta:1.0\n")
    code, _, err = run(capsys, "solve", "--config", str(cfgfile), "--out", str(tmp_path))
    assert code == 2
    assert "config error" in err and "basin 1" in err


@pytest.mark.parametrize("datum, message", [
    ("delta:0.zz", "digit 35 out of range for p=2"),
    ("delta:1.0", "datum cell '1.0' lies in basin 1, which is not in basins [0]"),
    ("ivp2:r=x,amplitude=0.1", "bad ivp2 parameters"),
    ("ivp2:r=-2", "ivp2 takes exactly the parameters r and amplitude"),
])
@pytest.mark.parametrize("dump", [False, True])
def test_bad_datum_string_exits_2_with_its_line(capsys, tmp_path, datum, message, dump):
    path = tmp_path / "cfg.yaml"
    path.write_text(MINIMAL + f"datum: {datum}\n")
    flags = ["--dump-normalized-config"] if dump else ["--out", str(tmp_path)]
    code, out, err = run(capsys, "solve", "--config", str(path), *flags)
    assert (code, out) == (2, "")
    assert f"config error: line 6: {message}" in err


def test_solve_single_basin_golden(capsys, tmp_path):
    # every value is the float64 of 0.5 (1 +/- exp(-t/2)); the oracle
    # gap on this preset is at machine epsilon
    code, out, _ = run(
        capsys, "solve", "--preset", "single_basin", "--out", str(tmp_path)
    )
    assert code == 0
    assert "wrote" in out
    assert (tmp_path / "density.csv").read_text() == (
        "t,series,value\n"
        "0,0.0,1\n"
        "0,0.1,0\n"
        "0.5,0.0,0.88940039153570249\n"
        "0.5,0.1,0.11059960846429756\n"
        "1,0.0,0.80326532985631671\n"
        "1,0.1,0.19673467014368329\n"
        "2,0.0,0.68393972058572117\n"
        "2,0.1,0.31606027941427883\n"
    )
    assert (tmp_path / "decay_rates.csv").read_text() == (
        "basin,r,rate,tau4,tau1\n0,-1,-0.5,8,2\n"
    )
    dat = (tmp_path / "density.dat").read_text().splitlines()
    assert dat[0] == "# t 0.0 0.1"
    assert dat[1] == "0 1 0"


def test_fast_network_is_not_refused(capsys, tmp_path):
    # w = v, so every exact scale rate is <= 0; a float difference of
    # symbol and loss_total/p would leave about +1e-10 at these rates
    path = tmp_path / "fast.yaml"
    path.write_text(
        "prime: 3\nbasins: [0]\nkernels:\n"
        "  w: {0: [0.0, 0.0, 2.4e+7]}\n  v: {0: [0.0, 0.0, 2.4e+7]}\n"
    )
    for command in ("solve", "tau", "oracle"):
        code, _, err = run(capsys, command, "--config", str(path), "--out", str(tmp_path))
        assert code == 0, (command, err)
    rows = (tmp_path / "decay_rates.csv").read_text().splitlines()[1:]
    assert len(rows) == 3
    assert max(float(row.split(",")[2]) for row in rows) <= 0


def test_solve_values_match_closed_form(capsys, tmp_path):
    code, _, _ = run(capsys, "solve", "--preset", "single_basin", "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "density.csv").read_text().splitlines()[1:]
    for row in rows:
        t, label, value = row.split(",")
        sign = 1.0 if label == "0.0" else -1.0
        expect = 0.5 * (1.0 + sign * math.exp(-0.5 * float(t)))
        assert float(value) == pytest.approx(expect, abs=1e-15)


# ---------------------------------------------------------------- oracle


@pytest.mark.parametrize("name", sorted(list_presets()))
def test_oracle_gap_small_on_every_preset(capsys, tmp_path, name):
    code, out, _ = run(capsys, "oracle", "--preset", name, "--out", str(tmp_path))
    assert code == 0
    reported = float(out.split("=")[1])
    assert reported <= 1e-8
    rows = (tmp_path / "oracle.csv").read_text().splitlines()
    assert rows[0] == "t,max_gap"
    gaps = [float(row.split(",")[1]) for row in rows[1:]]
    assert gaps
    assert max(gaps) <= 1e-8
    assert max(gaps) == reported


def test_oracle_imports_no_scipy(tmp_path):
    """The chain oracle is numpy alone at short and late times: on a
    512-state chain at t <= 4, a 16-state chain at t = 1e6, and every
    preset."""
    rows = {b: [(7 * i + 3 * b) % 11 / 10 for i in range(256)] for b in (0, 1)}
    path = tmp_path / "chain.yaml"
    path.write_text(
        TWO_BASINS.replace("resolution: 1", "resolution: 8").split("datum:")[0]
        + f"datum: {rows}\ntimes: [0.1, 1.0, 4.0]\n"
    )
    late = tmp_path / "late.yaml"
    late.write_text(
        TWO_BASINS.replace("[1.0]", "[0.5]").replace(": 0.5", ": 0.75")
        .replace("resolution: 1", "resolution: 3").split("datum:")[0]
        + "times: [1.0e+6]\n"
    )
    runs = [["--config", str(path)], ["--config", str(late)]]
    runs += [["--preset", name] for name in sorted(list_presets())]
    done = _python("-c", (
        "import sys\n"
        "from ultranet.cli import main\n"
        f"codes = [main(['oracle', *run, '--out', {str(tmp_path)!r}]) for run in {runs!r}]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    ))
    assert done.returncode == 0, done.stderr
    *gaps, last = done.stdout.splitlines()
    assert last == f"{[0] * len(runs)} []"
    assert len(gaps) == len(runs) and all(float(g.split("=")[1]) <= 1e-8 for g in gaps)


# ---------------------------------------------------------------- tau


def test_tau_on_dying_preset(capsys, tmp_path):
    # the uniform datum starts at the threshold, so the first crossing
    # is immediate
    code, out, _ = run(capsys, "tau", "--preset", "dying_two_basin", "--out", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "threshold = 0.98999999999999999"
    assert lines[1] == "tau = 0"
    assert (tmp_path / "tau.txt").read_text() == out


def test_tau_prints_no_grid_note_when_the_grid_fits(capsys, tmp_path):
    # there is no grid: tau.txt states tau, its cell and mode, and the
    # search horizon, and nothing goes to stderr
    code, out, err = run(capsys, "tau", "--preset", "dying_two_basin", "--out", str(tmp_path))
    assert code == 0
    assert err == ""
    keys = [line.split(" = ")[0] for line in out.splitlines()]
    assert keys == ["threshold", "tau", "crossing cell", "dominant mode", "search horizon"]


# a slow cross gain stretched the search horizon to 4e5, where the old
# time grid of 1e-3 over the fastest rate needed about 5e8 steps; no row
# of this derived network grows, so t = 0 decides tau
FLAT_NETWORK = """\
prime: 2
basins: [0, 1]
kernels:
  w: {0: [0.6, 0.3], 1: [0.6, 0.3]}
  v: {0: [0.8, 0.4], 1: [0.8, 0.4]}
cross:
  lambda: {0->1: 0.0005, 1->0: 0.7}
  mu: {1->0: 1.4, 0->1: 1.8}
resolution: 3
datum:
  0: [0.1, 0.5, 0.2, 0.3, 0.0, 0.4, 0.5, 0.1]
  1: [0.3, 0.3, 0.1, 0.0, 0.2, 0.5, 0.4, 0.2]
threshold: 0.99
"""


def test_tau_on_a_slow_cross_gain_reports_inf_quietly(capsys, tmp_path):
    path = tmp_path / "flat.yaml"
    path.write_text(FLAT_NETWORK)
    code, out, err = run(capsys, "tau", "--config", str(path), "--out", str(tmp_path))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[1] == "tau = inf"
    assert lines[4] == "search horizon = inf"
    assert (tmp_path / "tau.txt").read_text() == out


def test_tau_answered_inf_at_zero_builds_no_spectral_state(capsys, tmp_path, monkeypatch):
    # a table datum that t = 0 answers as inf reaches neither the state nor the search
    def refuse(*args, **kwargs):
        raise AssertionError("no spectral state is built")

    monkeypatch.setattr(spectral, "init", refuse)
    monkeypatch.setattr(spectral._Peak, "first_crossing", refuse)
    path = tmp_path / "flat.yaml"
    path.write_text(FLAT_NETWORK)
    code, out, err = run(capsys, "tau", "--config", str(path), "--out", str(tmp_path))
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "tau = inf"


def _workload_tau_configs() -> dict:
    """The generated `tau` configs of the benchmark's workloads at seed 1,
    by workload and config name."""
    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    out = {}
    for name in ("presets", "deep_tree", "long_grid", "chain"):
        built = workloads.build(name, 1)
        for inv in built.invocations:
            if inv.command == "tau" and not inv.preset:
                out[f"{name}:{inv.source}"] = yaml.safe_dump(built.configs[inv.source])
    return out


def test_tau_where_no_row_grows_runs_no_search(capsys, tmp_path, monkeypatch):
    # every preset and workload config whose basin matrix has no growing
    # row is answered 0 or inf at t = 0
    texts = {name: load_preset(name) for name in list_presets()}
    texts.update(_workload_tau_configs())
    monkeypatch.setattr(
        spectral._Peak, "first_crossing", mock.Mock(side_effect=AssertionError("searched"))
    )
    answered = {}
    for name, text in texts.items():
        spec = spec_from_config(parse_config(text))
        if any(sum(row) > 0 for row in spec.basin_rows):
            continue
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        code, out, err = run(capsys, "tau", "--config", str(path), "--out", str(tmp_path))
        assert (code, err) == (0, ""), name
        answered[name] = out.splitlines()[1]
    assert answered == {
        "single_basin": "tau = 0",
        "conservative_two_basin": "tau = 0",
        "dying_two_basin": "tau = 0",
        "long_grid:tau_flat": "tau = inf",
    }


@pytest.mark.parametrize(
    "edit, code, message",
    [
        (("0: [0.1, 0.5, 0.2, 0.3, 0.0, 0.4, 0.5, 0.1]", "0: [0.1, 0.5]"), 2,
         "error: basin 0: expected 8 values, got shape (2,)"),
        (("0.4, 0.5, 0.1]", "0.4, 0.5, 0.1, 0.7]"), 2,
         "error: basin 0: expected 8 values, got shape (9,)"),
        (("0.3, 0.3, 0.1", "0.3, 1.5, 0.1"), 2,
         "error: datum values in basin 1 span [0.0, 1.5], outside [0, 1]"),
        (("0.3, 0.3, 0.1", "0.3, -0.5, 0.1"), 2,
         "error: datum values in basin 1 span [-0.5, 0.5], outside [0, 1]"),
        (("0.3, 0.3, 0.1, 0.0", "1.7e+308, 1.7e+308, 1.7e+308, 1.7e+308"), 3,
         "numeric failure: the block means of the datum are not finite: "
         "its values lie too near the float range"),
        (("threshold: 0.99", "threshold: 0.0"), 2, "error: threshold must be > 0, got 0.0"),
        (("threshold: 0.99", "threshold: -1.0"), 2, "error: threshold must be > 0, got -1.0"),
    ],
    ids=["short_row", "long_row", "above_1", "below_0", "huge", "threshold_0", "threshold_negative"],
)
def test_tau_refuses_a_table_datum_where_no_row_grows(capsys, tmp_path, edit, code, message):
    # the route that t = 0 decides refuses as the spectral route does
    path = tmp_path / "flat.yaml"
    path.write_text(FLAT_NETWORK.replace(*edit))
    got, out, err = run(capsys, "tau", "--config", str(path), "--out", str(tmp_path / "out"))
    assert (got, out, err) == (code, "", message + "\n")
    assert not (tmp_path / "out" / "tau.txt").exists()


# ROADMAP item 2: basin 1 starts at 0.95 and stays above 0.9 for a while;
# basin 2, isolated with rates of 1e-12 and a datum of 0, changes nothing
# in the others, but would stretch a search horizon to 3e14
THREE_BASINS = """\
prime: 3
basins: [0, 1, 2]
convention: paper
kernels:
  w: {0: [1.0], 1: [1.0], 2: [1.0e-12]}
  v: {0: [1.0], 1: [1.03], 2: [1.0e-12]}
resolution: 1
datum:
  0: [0.0, 0.0, 0.0]
  1: [0.95, 0.95, 0.95]
  2: [0.0, 0.0, 0.0]
threshold: 0.9
"""


def test_an_isolated_slow_basin_does_not_hide_a_crossing_at_zero(capsys, tmp_path):
    # the grid, stretched to dt = 1.5e8 over that horizon, reported inf
    path = tmp_path / "three.yaml"
    path.write_text(THREE_BASINS)
    code, out, err = run(capsys, "tau", "--config", str(path), "--out", str(tmp_path))
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "tau = 0"
    assert out.splitlines()[4] == "search horizon = inf"


# ---------------------------------------------------------------- simulate


def test_simulate_deterministic_across_runs_and_threads(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text(
        MINIMAL + "datum: uniform\nresolution: 1\nseed: 7\npaths: 400\n"
        "t_max: 1.0\nrecord_times: [0.25, 0.75]\n"
    )
    outputs = []
    for threads in ("1", "1", "3"):
        out_dir = tmp_path / f"run{len(outputs)}{threads}"
        code, _, _ = run(
            capsys, "simulate", "--config", str(cfgfile),
            "--out", str(out_dir), "--threads", threads,
        )
        assert code == 0
        outputs.append((out_dir / "mc.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    header = outputs[0].decode().splitlines()[0]
    assert header == "t,state,estimate,stderr,n_alive"


def test_simulate_at_time_zero_returns_the_datum(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text(
        MINIMAL + "datum: {0: [0.25, 0.75]}\nresolution: 1\npaths: 50\ntimes: [0.0]\n"
    )
    code, _, err = run(capsys, "simulate", "--config", str(cfgfile), "--out", str(tmp_path))
    assert code == 0, err
    assert (tmp_path / "mc.csv").read_text().splitlines() == [
        "t,state,estimate,stderr,n_alive", "0,0.0,0.25,0,50", "0,0.1,0.75,0,50",
    ]


# two basins, kill-free: every gain is matched by a loss (mu[b->a] = lambda[a->b])
KILL_FREE_TWO_BASIN = """\
prime: 2
basins: [0, 1]
kernels:
  w: {0: [1.0, 0.5], 1: [0.75, 0.25]}
  v: {0: [1.0, 0.5], 1: [0.75, 0.25]}
cross:
  lambda: {0->1: 0.5, 1->0: 0.25}
  mu: {1->0: 0.5, 0->1: 0.25}
resolution: 3
seed: 5
paths: 500
record_times: [0.25, 0.5, 1.0]
"""


def test_t_max_does_not_change_mc_csv(capsys, tmp_path):
    outputs = []
    for extra in ("", "t_max: 20.0\n"):
        cfgfile = tmp_path / "cfg.yaml"
        cfgfile.write_text(KILL_FREE_TWO_BASIN + extra)
        out_dir = tmp_path / f"run{len(outputs)}"
        code, _, err = run(capsys, "simulate", "--config", str(cfgfile), "--out", str(out_dir))
        assert code == 0, err
        outputs.append((out_dir / "mc.csv").read_bytes())
    assert outputs[0] == outputs[1]
    rows = outputs[0].decode().splitlines()[1:]
    assert len(rows) == 3 * 16
    assert {row.rsplit(",", 1)[1] for row in rows} == {"500"}  # no path is killed


@pytest.mark.parametrize(
    "t_max,message",
    [("0.0", "t_max must be positive"), ("-1.0", "t_max must be positive"),
     ("0.5", "record_times must not exceed t_max")],
)
def test_t_max_below_the_record_times_exits_2(capsys, tmp_path, monkeypatch, t_max, message):
    def no_chain(*args):
        raise AssertionError("the chain is built before the run settings are checked")

    monkeypatch.setattr(tree, "discretize", no_chain)
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text(MINIMAL + f"paths: 10\nrecord_times: [0.0, 1.0]\nt_max: {t_max}\n")
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "simulate", "--config", str(cfgfile), "--out", str(out_dir))
    assert code == 2
    assert err == f"error: {message}\n"
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("threads", ["0", "-3", "two"])
@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_threads_below_one_exits_2(capsys, tmp_path, command, threads):
    out_dir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--preset", "single_basin", "--out", str(out_dir), "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out_dir.exists()


def test_huge_path_count_exits_2(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text(MINIMAL + "paths: 100000000000000000000\n")
    code, _, err = run(capsys, "simulate", "--config", str(cfgfile), "--out", str(tmp_path))
    assert code == 2
    assert "n_paths must be an integer from 1 to" in err
    assert "got 100000000000000000000" in err


def test_simulate_on_9375_states_exits_0(capsys, tmp_path):
    """The deep_tree shape with p = 5, three basins and R = 5 has 9375
    states, whose dense table of cumulative rates would take 670.6 MiB;
    the sampler holds each row as a few runs, so simulate runs it."""
    cfgfile = tmp_path / "big.yaml"
    cfgfile.write_text("""\
prime: 5
basins: [0, 2, 4]
kernels:
  w: {0: [1.0, 0.5], 2: [0.75, 0.25], 4: [0.5, 0.5]}
  v: {0: [1.5, 0.5], 2: [1.0, 0.5], 4: [1.0, 0.75]}
cross:
  lambda: {0->2: 0.5, 2->0: 0.25, 2->4: 0.5, 4->2: 0.25}
  mu: {0->2: 1.0, 2->0: 1.5, 2->4: 1.0, 4->2: 1.5}
resolution: 5
paths: 2
record_times: [0.1]
""")
    code, _, err = run(capsys, "simulate", "--config", str(cfgfile), "--out", str(tmp_path))
    assert code == 0, err
    rows = (tmp_path / "mc.csv").read_text().splitlines()
    assert len(rows) == 1 + 9375 and rows[1].startswith("0.10000000000000001,0.00000,")


def test_oracle_on_8192_states_at_a_late_time_exits_0(capsys, tmp_path):
    """A chain of 8192 states, whose dense matrix would take 512 MiB,
    runs the oracle at t = 1e9 as at short times: e^{tQ} is formed in the
    level algebra, and no dense array."""
    rows = {b: [(7 * i + 3 * b) % 11 / 10 for i in range(4096)] for b in (0, 1)}
    text = (TWO_BASINS.replace("resolution: 1", "resolution: 12").split("datum:")[0]
            + f"datum: {rows}\n")
    cfgfile = tmp_path / "big.yaml"
    cfgfile.write_text(text + "times: [0.1, 1.0, 1.0e+9]\n")
    code, out, err = run(capsys, "oracle", "--config", str(cfgfile), "--out", str(tmp_path))
    assert code == 0, err
    assert float(out.split("=")[1]) <= 1e-8
    rows = (tmp_path / "oracle.csv").read_text().splitlines()
    assert rows[0] == "t,max_gap" and len(rows) == 4


def test_no_oracle_path_forms_a_dense_chain_array(capsys, tmp_path):
    """No ultranet module defines a builder of a states^2 array, and
    compare on every preset, at short and late times, and `oracle` on
    one run."""
    assert dense_chain_builders() == []
    for name in list_presets():
        cfg = parse_config(load_preset(name))
        spec = spec_from_config(cfg)
        datum = cli.datum_from_config(cfg, spec)
        tree.compare(spec, datum, cfg.get("times", [0.1, 1.0, 10.0]) + [1e6, 1e300])
    code, _, err = run(capsys, "oracle", "--preset", "dying_two_basin", "--out", str(tmp_path))
    assert code == 0, err
    assert (tmp_path / "oracle.csv").exists()


# a scale rate of -1e9 times t = 1e300 rounds to -inf, where e^{s t} is 0
FAST_DECAY = """\
prime: 2
basins: [0]
kernels: {w: {0: [1.0e+9]}, v: {0: [1.0e+9]}}
resolution: 1
datum: delta:0.0
times: [0.0, 1.0e+300]
"""

# derived, and no row grows; basin 0 leaks at rates of 1e-13, which the
# one uniformization rate, about 25000, of both rows rounds away
STIFF = """\
prime: 2
basins: [0, 1]
kernels: {w: {0: [1.0], 1: [1.0e+5]}, v: {0: [1.0], 1: [2.0e+5]}}
cross: {lambda: {0->1: 1.0e-13, 1->0: 1.0}, mu: {1->0: 2.0e-13, 0->1: 1.0}}
resolution: 1
datum: uniform
"""


def test_a_scale_factor_past_the_float_range_warns_nothing(tmp_path):
    path = tmp_path / "fast.yaml"
    path.write_text(FAST_DECAY)
    for command, out in (("solve", "wrote "), ("oracle", "max gap over grid = 0\n")):
        done = _python("-m", "ultranet.cli", command, "--config", str(path), "--out", str(tmp_path))
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith(out)
    assert (tmp_path / "density.dat").read_text() == (
        "# t 0.0 0.1\n0 1 0\n1.0000000000000001e+300 0.5 0.5\n"
    )
    assert (tmp_path / "oracle.csv").read_text() == "t,max_gap\n0,0\n1.0000000000000001e+300,0\n"


def test_an_oracle_that_overflows_says_so_once(tmp_path):
    """The chain's exponential overflows at t = 1e15 on the stiff network
    at depth 3; compare's gap check is the one report."""
    path = tmp_path / "stiff.yaml"
    path.write_text(STIFF.replace("resolution: 1", "resolution: 2") + "times: [1.0e+15]\n")
    done = _python("-m", "ultranet.cli", "oracle", "--config", str(path), "--out", str(tmp_path))
    assert done.returncode == 3
    assert done.stderr == "numeric failure: oracle gap is not finite at t = 1e+15\n"
    assert not (tmp_path / "oracle.csv").exists()


@pytest.mark.xfail(
    strict=True,
    reason="one uniformization rate serves both rows, and the rows that are "
    "not closed drift by about L t 2^-53 until the means overflow",
)
def test_a_stiff_network_that_only_decays_is_solved_at_a_late_time(capsys, tmp_path):
    path = tmp_path / "stiff.yaml"
    path.write_text(STIFF + "times: [1.0e+20]\n")
    code, _, err = run(capsys, "solve", "--config", str(path), "--out", str(tmp_path))
    assert code == 0, err


# basin 1's exact row sums to +1, so t = 0 decides nothing, yet every
# eigenvalue of the basin matrix is negative (-3.70, -0.63, -2.2e-13):
# the means never grow, and only _Peak's second norm, built from the
# spectrum, bounds them tightly enough for the search to set the
# intervals aside
RUGGED = """\
prime: 3
basins: [0, 1, 2]
convention: paper
kernels: {w: {0: [1.0], 1: [1.0], 2: [0.0]}, v: {0: [13.0], 1: [1.0], 2: [1.0e-12]}}
cross: {lambda: {0->1: 0.5, 1->0: 2.0}, mu: {1->0: 2.0, 0->1: 3.0}}
resolution: 2
datum:
  0: [0.98, 0.98, 0.98, 0.98, 0.98, 0.98, 0.98, 0.98, 0.98]
  1: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5]
  2: [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
threshold: 0.99
"""


def test_a_rugged_network_with_a_growing_row_never_crosses(capsys, tmp_path):
    path = tmp_path / "rugged.yaml"
    path.write_text(RUGGED)
    ceiling, calls = spectral._Peak._ceiling, []

    def counted(peak, *interval):
        # stop a search that does not end, rather than wait for it
        calls.append(interval)
        assert len(calls) <= 1000, "the search passed 1000 intervals"
        return ceiling(peak, *interval)

    with mock.patch.object(spectral._Peak, "_ceiling", counted):
        code, out, err = run(capsys, "tau", "--config", str(path), "--out", str(tmp_path))
    assert code == 0, err
    assert "tau = inf\n" in out
    assert "search horizon = 450000000000000\n" in out
    assert (tmp_path / "tau.txt").read_text() == out


def item_1_reproducer(tmp_path):
    """folding_demo with mu 9.98 both ways: both exact rows sum to +0.01."""
    cfg = yaml.safe_load(load_preset("folding_demo"))
    cfg["cross"]["mu"] = {"0->1": 9.98, "1->0": 9.98}
    path = tmp_path / "slow_growth.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def printed(out, name):
    [line] = [line for line in out.splitlines() if line.startswith(f"{name} = ")]
    return float(line.split(" = ")[1])


@pytest.mark.xfail(
    strict=True,
    reason="where a row grows, the search still ends at 100 over the slowest "
    "rate, here 20.04, far short of the crossing",
)
def test_a_slowly_growing_network_crosses_past_the_rate_horizon(capsys, tmp_path):
    # once the bump decays, both basin means are 0.5 e^{0.01 t}
    want = 100 * math.log(1.98)
    path = item_1_reproducer(tmp_path)
    code, out, err = run(capsys, "tau", "--config", str(path), "--out", str(tmp_path))
    assert code == 0, err
    assert printed(out, "tau") == pytest.approx(want, rel=1e-9)
    code, out, err = run(capsys, "folding-demo", "--config", str(path), "--out", str(tmp_path))
    assert code == 0, err
    assert printed(out, "tau (numeric crossing)") == pytest.approx(want, rel=1e-9)


def test_tau_and_simulate_take_one_datum_range(capsys, tmp_path):
    """A value 1e-13 past 1 runs under both commands, and one 1e-11 past
    1 exits 2 under both."""
    for value, wanted in (("1.0000000000001", 0), ("1.00000000001", 2)):
        path = tmp_path / f"{value}.yaml"
        path.write_text(
            TWO_BASINS.split("datum:")[0]
            + f"datum: {{0: [{value}, 0.5], 1: [0.2, 0.3]}}\npaths: 10\nrecord_times: [0.5]\n"
        )
        for command in ("tau", "simulate"):
            code, _, err = run(capsys, command, "--config", str(path), "--out", str(tmp_path))
            assert code == wanted, (command, err)
    assert err == "error: u0 must take values in [0, 1]\n"


def reference_plotdata(labels, rows):
    """The lines, newlines kept, of the long-format CSV and the columns
    file for (t, values) rows, one time at a time."""
    csv, dat = ["t,series,value\n"], ["# t " + " ".join(labels) + "\n"]
    for t, values in rows:
        texts = [f"{x:.17g}" for x in values]
        csv += [f"{t:.17g},{label},{text}\n" for label, text in zip(labels, texts)]
        dat.append(f"{t:.17g} " + " ".join(texts) + "\n")
    return csv, dat


def lines(path):
    return path.read_text().splitlines(keepends=True)


def test_solve_bytes_match_a_loop_over_single_times(capsys, tmp_path):
    # past p = 36 each digit of a label is a decimal after its own '.'
    for p, R, n_times in [(3, 3, 500), (37, 2, 60)]:
        rng = random.Random(15)
        cfg = parse_config(
            f"prime: {p}\nbasins: [0, 2]\nkernels:\n"
            "  w: {0: [0.8, 0.3], 2: [1.1, 0.2]}\n  v: {0: [1.2, 0.5], 2: [1.4, 0.4]}\n"
            "cross: {lambda: {0->2: 0.4, 2->0: 0.7}, mu: {0->2: 1.9, 2->0: 1.5}}\n"
        )
        cfg["resolution"] = R
        cfg["datum"] = {b: [rng.uniform(0.0, 1.0) for _ in range(p**R)] for b in (0, 2)}
        cfg["times"] = [0.0] + sorted(10.0 ** rng.uniform(-6.0, 3.0) for _ in range(n_times - 1))
        path = tmp_path / f"net{p}.yaml"
        path.write_text(dump_config(cfg))
        out = tmp_path / f"out{p}"
        code, _, _ = run(capsys, "solve", "--config", str(path), "--out", str(out))
        assert code == 0

        spec = spec_from_config(cfg)
        datum = cli.datum_from_config(cfg, spec)
        state = spectral.init(spec, datum)
        details = dense_details(state.details, p)

        def rows():
            for t in cfg["times"]:
                mean = spectral._propagate(state, t)
                parts = (details * np.exp(state.rates * t)[:, :, None]).sum(axis=1)
                yield t, (mean[:, None] + parts).ravel().tolist()

        csv, dat = reference_plotdata([cell.label(p) for cell in cells(datum)], rows())
        assert lines(out / "density.csv") == csv
        assert lines(out / "density.dat") == dat
    assert [line.split(",")[1] for line in csv[1:3]] == ["0.0.0", "0.0.1"]


def test_folding_demo_series_match_a_loop_over_single_times(capsys, tmp_path):
    code, _, _ = run(capsys, "folding-demo", "--preset", "folding_demo", "--out", str(tmp_path))
    assert code == 0
    series = lines(tmp_path / "folding_timeseries.csv")
    times = [float(line.split(",")[0]) for line in series[1::2]]
    assert len(times) == 41

    cfg = parse_config(load_preset("folding_demo"))
    spec = spec_from_config(cfg)
    state = spectral.init(spec, ivp2_datum(scenario_from_config(cfg, spec)))
    rows = ((t, spectral._propagate(state, t).tolist()) for t in times)
    csv, dat = reference_plotdata(["basin-0", "basin-1"], rows)
    assert series == csv
    assert lines(tmp_path / "folding_timeseries.dat") == dat


# ---------------------------------------------------------------- folding demo


def test_folding_demo_report(capsys, tmp_path):
    code, out, _ = run(
        capsys, "folding-demo", "--preset", "folding_demo", "--out", str(tmp_path)
    )
    assert code == 0
    assert "coupling alpha = 5" in out
    assert "basin losses beta, gamma = 2.5, 2.5" in out
    assert "A = 10" in out
    assert "tau (closed form) = 0.042144206263130514" in out
    assert "crossing cell = 1.0000" in out
    assert "time constant (chain) = -0.4" in out
    assert "time constant (mode) = 0.32" in out
    tau_line = [l for l in out.splitlines() if "numeric crossing" in l][0]
    tau = float(tau_line.split("=")[1])
    # grid-refined crossing of 0.5 exp(2.5 t) + 0.4 exp(-3.125 t) = 0.99
    assert tau == pytest.approx(0.16132763928578644, abs=1e-9)
    report = (tmp_path / "folding.txt").read_text()
    assert report.splitlines() == out.splitlines()[:11]
    series = (tmp_path / "folding_timeseries.csv").read_text().splitlines()
    assert series[0] == "t,series,value"
    first = series[1].split(",")
    assert first[1] == "basin-0"
    # basin averages of the initial datum: (A - beta + gamma) / (2 A p)
    assert float(first[2]) == pytest.approx(0.5, abs=1e-12)


def test_folding_demo_prints_the_coupling_as_a_float(capsys, tmp_path):
    code, out, _ = run(
        capsys, "folding-demo", "--preset", "folding_demo", "--out", str(tmp_path)
    )
    assert (code, out.splitlines()[0]) == (0, "coupling alpha = 5")
    path = tmp_path / "weak.yaml"
    path.write_text(
        load_preset("folding_demo")
        .replace(": 5.0\n", ": 0.3\n")
        .replace("amplitude=0.4", "amplitude=0.1")
    )
    code, out, _ = run(capsys, "folding-demo", "--config", str(path), "--out", str(tmp_path))
    assert code == 0
    assert out.splitlines()[0] == "coupling alpha = 0.29999999999999999"
    assert (tmp_path / "folding.txt").read_text().splitlines()[0] == out.splitlines()[0]


def test_folding_demo_derived_convention_never_crosses(capsys, tmp_path):
    code, out, _ = run(
        capsys, "folding-demo", "--preset", "folding_demo",
        "--convention", "derived", "--out", str(tmp_path),
    )
    assert code == 0
    assert "convention = derived" in out
    assert "tau (numeric crossing) = inf" in out
    assert "crossing cell = -" in out
    # the closed form does not depend on the convention
    assert "tau (closed form) = 0.042144206263130514" in out


# ---------------------------------------------------------------- misc


def test_dump_normalized_config_prints_and_stops(capsys, tmp_path):
    code, out, _ = run(
        capsys, "solve", "--preset", "single_basin",
        "--out", str(tmp_path / "nowhere"), "--dump-normalized-config",
    )
    assert code == 0
    assert out.startswith("basins:")
    assert not (tmp_path / "nowhere").exists()
    assert dump_config(parse_config(out)) == out


def test_out_directory_is_created(capsys, tmp_path):
    target = tmp_path / "a" / "b"
    code, _, _ = run(capsys, "classify", "--preset", "single_basin", "--out", str(target))
    assert code == 0
    assert (target / "classification.json").is_file()


def test_seventeen_digit_floats_survive_round_trip():
    from ultranet.cli import _fmt

    for x in (1 / 3, math.pi, 0.1 + 0.2, 1e-300, -0.0):
        assert float(_fmt(x)) == x
    assert _fmt(float("inf")) == "inf"
    assert _fmt(float("-inf")) == "-inf"
    assert _fmt(3) == "3"


# ---------------------------------------------------------------- malformed inputs


def test_empty_times_rejected_with_line():
    with pytest.raises(ConfigError, match="line 6: times must not be empty"):
        parse_config(MINIMAL + "times: []\n")


@pytest.mark.parametrize("command", ["oracle", "solve"])
def test_empty_times_exits_2(capsys, tmp_path, command):
    path = tmp_path / "empty_times.yaml"
    path.write_text(MINIMAL + "times: []\n")
    code, _, err = run(capsys, command, "--config", str(path), "--out", str(tmp_path))
    assert code == 2
    assert "line 6: times must not be empty" in err


@pytest.mark.parametrize("command", ["folding-demo", "solve", "tau"])
def test_ivp2_datum_with_zero_A_exits_2(capsys, tmp_path, command):
    # no cross gain and equal basin losses: A = sqrt(4 alpha^2 + (beta - gamma)^2) = 0
    path = tmp_path / "flat.yaml"
    path.write_text(
        MINIMAL.replace("[0]", "[0, 1]")
        .replace("w: {0: [1.0]}", "w: {0: [1.0], 1: [1.0]}")
        .replace("v: {0: [1.0]}", "v: {0: [1.0], 1: [1.0]}")
        + 'datum: "ivp2:r=-2,amplitude=0.1"\n'
    )
    code, _, err = run(capsys, command, "--config", str(path), "--out", str(tmp_path))
    assert code == 2
    assert "A = 0" in err


def test_late_basin_means_of_a_conservative_network_are_exact(capsys, tmp_path):
    # the paper rows sum to exactly 0, so the density tends to the datum's
    # mean at every late time; an error that grew like t ||Lambda|| 2^-53
    # would reach the second datum's mean by t = 1e15
    times = [1.0e9, 1.0e12, 1.0e15, 1.0e18, 1.0e20, 1.0e100, 1.0e300, 1.0e308]
    listed = ", ".join(f"{t:.1e}" for t in times)  # YAML 1.1 floats: 1.0e+09
    for datum, exact in (("uniform", 1.0), ("{0: [0.2, 0.6], 1: [0.9, 0.1]}", 0.45)):
        text = load_preset("conservative_two_basin").replace(
            "times: [0.0, 0.5, 1.0, 5.0]", f"times: [{listed}]"
        ).replace("datum: uniform", f"datum: {datum}")
        path = tmp_path / "late.yaml"
        path.write_text(text)
        code, _, err = run(
            capsys, "solve", "--config", str(path), "--convention", "paper", "--out", str(tmp_path)
        )
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in (tmp_path / "density.csv").read_text().splitlines()[1:]]
        assert sorted({float(row[0]) for row in rows}) == times
        assert max(abs(float(row[2]) - exact) for row in rows) <= 1e-12


def test_first_overflowing_time_is_named_though_later_ones_overflow_too(capsys, tmp_path):
    # folding_demo's means grow like e^{2.5 t}: 1e+3 and 1e+308 both
    # overflow, in one chunk of times, and the first is named
    path = tmp_path / "late.yaml"
    path.write_text(load_preset("folding_demo") + "times: [1.0, 1.0e+3, 1.0e+308]\n")
    code, out, err = run(capsys, "solve", "--config", str(path), "--out", str(tmp_path))
    assert code == 3
    assert out == ""
    assert err == (
        "numeric failure: basin means are not finite at t = 1000: "
        "the basin-matrix exponential overflows\n"
    )
    assert sorted(f.name for f in tmp_path.iterdir()) == ["late.yaml"]


def test_a_datum_near_the_float_range_exits_3_with_one_line(tmp_path):
    # the block means of this datum overflow; numpy's own warning must not
    # reach stderr
    path = tmp_path / "huge.yaml"
    path.write_text(
        MINIMAL + "resolution: 2\n"
        "datum: {0: [1.7e+308, 1.7e+308, 1.7e+308, -1.7e+308]}\ntimes: [1.0]\n"
    )
    for command in ("solve", "oracle"):
        done = _python("-m", "ultranet.cli", command, "--config", str(path), "--out", str(tmp_path))
        assert done.returncode == 3
        assert done.stderr == (
            "numeric failure: the block means of the datum are not finite: "
            "its values lie too near the float range\n"
        )


def test_folding_demo_that_overflows_publishes_nothing(capsys, tmp_path):
    # the report is complete before the time series fails at 1e+308
    path = tmp_path / "late.yaml"
    path.write_text(load_preset("folding_demo") + "times: [1.0, 1.0e+308]\n")
    out_dir = tmp_path / "out"
    code, _, err = run(capsys, "folding-demo", "--config", str(path), "--out", str(out_dir))
    assert code == 3
    assert "numeric failure: basin means are not finite at t = 1e+308" in err
    assert list(out_dir.iterdir()) == []


def test_oracle_answers_after_every_state_has_died(capsys, tmp_path):
    # every state of this 4-state chain is killed: its exponential decays to
    # exact zeros, where the chain solver once gave NaN from t = 1e50 on
    path = tmp_path / "late.yaml"
    path.write_text(
        MINIMAL.replace("w: {0: [1.0]}", "w: {0: [1.0, 0.5]}")
        .replace("v: {0: [1.0]}", "v: {0: [1.5, 1.0]}")
        + "resolution: 2\n"
        + "times: [1.0, 1.0e+20, 1.0e+50, 1.0e+300, 1.0e+308]\n"
    )
    code, out, err = run(capsys, "oracle", "--config", str(path), "--out", str(tmp_path))
    assert (code, err) == (0, "")
    rows = (tmp_path / "oracle.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [1.0, 1e20, 1e50, 1e300, 1e308]
    assert max(float(row.split(",")[1]) for row in rows) <= 1e-8
    assert float(out.split("=")[1]) <= 1e-8


def test_every_command_runs_at_p_37(capsys, tmp_path):
    # past base 36 a cell label spells each digit in decimal after its own
    # '.', and a delta datum names its cell the same way
    path = tmp_path / "p37.yaml"
    path.write_text(
        MINIMAL.replace("prime: 2", "prime: 37")
        + 'resolution: 1\ndatum: "delta:0.36"\npaths: 20\n'
    )
    outs = {}
    for command in ("solve", "simulate", "tau", "oracle"):
        code, outs[command], err = run(
            capsys, command, "--config", str(path), "--out", str(tmp_path)
        )
        assert (code, err) == (0, "")
    labels = [f"0.{d}" for d in range(37)]
    assert (tmp_path / "density.dat").read_text().splitlines()[0] == "# t " + " ".join(labels)
    rows = [row.split(",") for row in (tmp_path / "density.csv").read_text().splitlines()[1:]]
    assert [(label, value) for t, label, value in rows if t == "0"] == [
        (label, "1" if label == "0.36" else "0") for label in labels
    ]
    mc = [row.split(",") for row in (tmp_path / "mc.csv").read_text().splitlines()[1:]]
    assert [row[1] for row in mc] == labels
    assert "crossing cell = 0.36" in outs["tau"].splitlines()
    assert float(outs["oracle"].split("=")[1]) <= 1e-8


def test_scale_parts_past_the_memory_exit_3(capsys, tmp_path, monkeypatch):
    # with the memory taken as 1 MiB, R = 16 needs 8 x (2^17 - 2) bytes for
    # the levels and 8 x 3 x 2^16 for three rows of cells, 2.5 MiB
    monkeypatch.setattr(spectral, "_memory_bytes", lambda: 2**20)
    path = tmp_path / "deep.yaml"
    path.write_text(MINIMAL + "resolution: 16\n")
    for command in ("solve", "tau"):
        code, out, err = run(capsys, command, "--config", str(path), "--out", str(tmp_path))
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure: out of memory: the scale parts of 1 basins")


def test_tau_runs_where_a_scale_by_cell_array_would_not_fit(capsys, tmp_path, monkeypatch):
    # folding_demo at R = 12, two basins of 4096 cells: with the memory
    # taken as 1 MiB, the levels and three rows of cells need 320 KiB; a
    # (basins, R, cells) array and one product of its size took 1.5 MiB
    path = tmp_path / "deep.yaml"
    path.write_text(load_preset("folding_demo").replace("resolution: 4", "resolution: 12"))
    outs = []
    for memory in (None, 2**20):
        if memory:
            monkeypatch.setattr(spectral, "_memory_bytes", lambda: memory)
        out = tmp_path / str(memory)
        code, text, err = run(capsys, "tau", "--config", str(path), "--out", str(out))
        assert (code, err) == (0, "")
        outs.append((text, (out / "tau.txt").read_text()))
    assert outs[0] == outs[1]
    assert "crossing cell" in outs[0][0]


def test_oversized_cell_table_exits_3(capsys, tmp_path):
    # 97^9 cells per basin: numpy refuses the 5 EiB table before allocating
    path = tmp_path / "huge.yaml"
    path.write_text(MINIMAL.replace("prime: 2", "prime: 97") + "resolution: 9\n")
    code, _, err = run(capsys, "solve", "--config", str(path), "--out", str(tmp_path))
    assert code == 3
    assert "numeric failure: out of memory" in err


@pytest.mark.parametrize("command", ["solve", "tau", "oracle", "simulate"])
@pytest.mark.parametrize("datum", ["uniform", "ivp2"])
def test_a_table_numpy_cannot_shape_exits_3(command, datum, tmp_path):
    """2^70 and 2^200 cells per basin: numpy cannot even shape the table
    (it would raise ValueError, not MemoryError), so nothing is allocated."""
    if datum == "uniform":
        text = MINIMAL + "resolution: 70\n"
    else:
        text = load_preset("folding_demo").replace("resolution: 4", "resolution: 200")
    path = tmp_path / "huge.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    done = _python("-m", "ultranet.cli", command, "--config", str(path), "--out", str(out))
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("numeric failure: out of memory: ")
    assert "Traceback" not in done.stderr
    assert list(out.iterdir()) == []


def test_solve_memory_does_not_grow_with_the_time_grid(tmp_path):
    text = (
        MINIMAL.replace("[0]", "[0, 1]")
        .replace("w: {0: [1.0]}", "w: {0: [0.5], 1: [1.0]}")
        .replace("v: {0: [1.0]}", "v: {0: [1.0], 1: [1.0]}")
        + "cross: {lambda: {0->1: 1.0, 1->0: 1.0}, mu: {0->1: 2.0, 1->0: 2.0}}\n"
        + "resolution: 5\n"
    )
    args = SimpleNamespace(out=str(tmp_path))
    peaks = {}
    for n_times in (20, 20, 2000):  # the first run warms caches
        cfg = parse_config(text)
        cfg["times"] = [0.01 * k for k in range(n_times)]
        spec = spec_from_config(cfg)
        tracemalloc.start()
        try:
            assert _run_solve(cfg, spec, args) == 0
            peaks[n_times] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[2000] <= 1.5 * peaks[20]


OVERFLOWING_TOTALS = """\
prime: 3
basins: [0, 1, 2]
kernels:
  w: {0: [1.0], 1: [1.0], 2: [1.0]}
  v: {0: [1.0], 1: [1.0], 2: [1.0]}
cross:
  mu: {1->0: 1.0e+308, 2->0: 1.0e+308}
"""


@pytest.mark.parametrize("command", ["classify", "solve", "tau", "oracle", "simulate"])
def test_a_total_beyond_the_float_range_exits_2(capsys, tmp_path, command):
    # each rate is finite, but basin 0 drains at 2e308 in total
    path = tmp_path / "huge_totals.yaml"
    path.write_text(OVERFLOWING_TOTALS)
    code, out, err = run(capsys, command, "--config", str(path), "--out", str(tmp_path))
    assert code == 2
    assert err == (
        "error: basin 0: the total loss rate exceeds the float range "
        "(largest float 1.7976931348623157e+308)\n"
    )
    assert out == ""
    assert sorted(f.name for f in tmp_path.iterdir()) == ["huge_totals.yaml"]


def test_scales_that_do_not_decay_report_rate_0(capsys, tmp_path):
    # w = v: the exact rate of scales -1 and -2 is 0, and it must not come
    # out as a rounding residue that sets the time constants and tau's grid
    path = tmp_path / "flat_scales.yaml"
    path.write_text(
        "prime: 3\nbasins: [0]\nkernels:\n"
        "  w: {0: [0.0, 0.0, 2.3]}\n  v: {0: [0.0, 0.0, 2.3]}\nresolution: 3\n"
    )
    for command in ("solve", "tau"):
        code, _, err = run(capsys, command, "--config", str(path), "--out", str(tmp_path))
        assert code == 0, (command, err)
    rows = (tmp_path / "decay_rates.csv").read_text().splitlines()
    assert rows[1:3] == ["0,-1,0,inf,inf", "0,-2,0,inf,inf"]
    assert rows[3].startswith("0,-3,-0.085185185185185")
    tau = (tmp_path / "tau.txt").read_text().splitlines()
    assert "search horizon = inf" in tau  # t = 0 decides tau
    # the horizon a search would take skips the zero rates
    cfg = parse_config(path.read_text())
    spec = spec_from_config(cfg)
    state = spectral.init(spec, cli.datum_from_config(cfg, spec))
    assert 100 / spectral._rate_pool(state).min() == 1173.913043478261
