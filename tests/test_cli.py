import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultranet.cli import (
    ConfigError,
    dump_config,
    list_presets,
    load_preset,
    main,
    parse_config,
)

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
    with pytest.raises(ConfigError, match="not valid YAML"):
        parse_config("prime: [unclosed\n")


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


def test_dump_round_trip_is_stable():
    for name in list_presets():
        dumped = dump_config(parse_config(load_preset(name)))
        assert dump_config(parse_config(dumped)) == dumped


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


def test_delta_datum_outside_the_basins_exits_2(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.yaml"
    cfgfile.write_text(MINIMAL + "datum: delta:1.0\n")
    code, _, err = run(capsys, "solve", "--config", str(cfgfile), "--out", str(tmp_path))
    assert code == 2
    assert "config error" in err and "basin 1" in err


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
