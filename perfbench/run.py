#!/usr/bin/env python3
"""Closed-loop benchmark of the ultranet command line.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. A single client runs one
`python -m ultranet.cli` subprocess at a time (PYTHONPATH=src,
--threads 1, BLAS and OpenMP pinned to one thread) over the workload's
invocations, one pass after another, until --seconds is spent. The
set-up phase (timed --dump-normalized-config rounds after one discarded
warm-up dump) fills the caches first. Outputs are checked in full
against independent references the first time an invocation writes
them; later passes must write the same bytes. The end-to-end metrics
sum each invocation's median over the passes.

With --trace 1 the passes alternate between plain invocations and
invocations under perfbench/tracer.py, and the per-layer metrics are
medians over the traced passes; the difference between the two kinds
of pass is reported as the tracing overhead.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`attempted` and `failed` count invocations (the `ops` base and the
numerator of `fail_ratio`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import yaml

import reference
import workloads

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
PACKAGE = ROOT / "src" / "ultranet"

BLAS_THREADS = 1  # pinned in every child; at most nproc
INVOCATION_TIMEOUT = 120.0  # a hung child is killed after this many seconds
HARD_STOP = 120.0  # no pass starts later than this into the run
SETUP_ROUNDS = 2  # rounds of --dump-normalized-config per run; setup_s is their median

END_TO_END = [("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]
COMMAND_METRICS = {"solve": "solve_s", "tau": "tau_s", "oracle": "oracle_s", "simulate": "simulate_s"}

# <module>.<function>.<kind>; `s` is inclusive time of the outermost span
# per name, summed over a pass like every count; rss_rise_mb is the
# largest rise of ru_maxrss across one span in the pass.
LAYER_METRICS = [
    ("import.ultranet_cli.s", "s"),
    ("import.scipy_linalg.s", "s"),
    ("cli.parse_config.s", "s"),
    ("cli.spec_from_config.s", "s"),
    ("cli.datum_from_config.s", "s"),
    ("cli.emit_plotdata.s", "s"),
    ("cli.output.bytes", "bytes"),
    ("cli.main.self_s", "s"),
    ("network.build_basin_matrix.s", "s"),
    ("network.build_basin_matrix.calls", "count"),
    ("network.aggregate_rates.s", "s"),
    ("network.aggregate_rates.calls", "count"),
    ("kernels.symbol_value.calls", "count"),
    ("network.classify.s", "s"),
    ("wavelets.wavelet_matrix.s", "s"),
    ("wavelets.wavelet_matrix.calls", "count"),
    ("wavelets.wavelet_matrix.bytes", "bytes"),
    ("wavelets.expand.s", "s"),
    ("wavelets.enumerate_wavelets.calls", "count"),
    ("padic.enumerate_cells.calls", "count"),
    ("spectral.init.s", "s"),
    ("spectral.evolve.s", "s"),
    ("spectral.evolve.calls", "count"),
    ("spectral.eval_density.s", "s"),
    ("spectral.eval_density.calls", "count"),
    ("spectral.matrix_exponential.calls", "count"),
    ("spectral.decay_rates.s", "s"),
    ("spectral.absorbing_time.s", "s"),
    ("spectral.absorbing_time.grid_steps", "count"),
    ("spectral.absorbing_time.rss_rise_mb", "MB"),
    ("tree.discretize.s", "s"),
    ("tree.discretize.states", "count"),
    ("tree.solve.s", "s"),
    ("tree.solve.calls", "count"),
    ("tree.solve.rss_rise_mb", "MB"),
    ("tree.compare.s", "s"),
    ("montecarlo.simulate.s", "s"),
    ("montecarlo.simulate.path_starts", "count"),
    ("montecarlo.write_csv.s", "s"),
    ("binary.folding_tau.s", "s"),
]
# Figures from the untraced passes of a traced run, reported beside the
# layers because a workload that skips a subcommand reads 0 for them.
PASS_METRICS = [
    ("solve_s", "s"),
    ("tau_s", "s"),
    ("oracle_s", "s"),
    ("simulate_s", "s"),
    ("fail_ratio", "ratio"),
    ("ops", "count"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
]


# ---------------------------------------------------------------- children


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Child:
    """One finished subprocess: exit code, wall time and its own rusage."""

    def __init__(self, argv: list, log: Path, env: dict, spans: Path | None = None):
        self.spans = spans  # the tracer's span file, for a traced child
        with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
            timer = threading.Timer(INVOCATION_TIMEOUT, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN
                # would keep only a running maximum over all children
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - start
        self.rc = proc.returncode
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = log.with_suffix(".out").read_text(errors="replace")
        self.stderr = log.with_suffix(".err").read_text(errors="replace")


def dir_digest(path: Path):
    """(sha256 over file names and bytes, total bytes) of an output dir."""
    h, size = hashlib.sha256(), 0
    for f in sorted(path.iterdir()):
        data = f.read_bytes()
        h.update(f.name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


# ---------------------------------------------------------------- runner


class Runner:
    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.env = child_env()
        self.config_dir = WORK / "configs"
        self.config_dir.mkdir(parents=True)
        self.configs = {}
        for name, cfg in wl.configs.items():
            (self.config_dir / f"{name}.yaml").write_text(
                yaml.safe_dump(cfg, sort_keys=True, default_flow_style=None, width=1 << 20)
            )
            self.configs[name] = cfg
        for inv in wl.invocations:
            if inv.preset and inv.source not in self.configs:
                text = (PACKAGE / "presets" / f"{inv.source}.yaml").read_text()
                self.configs[inv.source] = yaml.safe_load(text)
        self.verdicts = {}  # invocation key -> (rc, digest, failure or None)
        self.failures = []  # (key, reason, known) for every failed invocation
        self.attempted = 0
        self.failed = 0
        self.unknown_failures = 0
        self.seq = 0

    def source_args(self, inv) -> list:
        if inv.preset:
            return ["--preset", inv.source]
        return ["--config", str(self.config_dir / f"{inv.source}.yaml")]

    def spawn(self, cli_args: list, traced: bool):
        self.seq += 1
        log = WORK / "logs" / str(self.seq)
        log.parent.mkdir(exist_ok=True)
        if not traced:
            return Child([sys.executable, "-m", "ultranet.cli", *cli_args], log, self.env)
        spans = WORK / "spans" / f"{self.seq}.json"
        spans.parent.mkdir(exist_ok=True)
        tracer = str(Path(__file__).with_name("tracer.py"))
        return Child([sys.executable, tracer, str(spans), *cli_args], log, self.env, spans)

    def invoke(self, inv, traced=False, threads=1):
        out = WORK / "out" / inv.key.replace(":", "_")
        shutil.rmtree(out, ignore_errors=True)
        child = self.spawn(
            [inv.command, *self.source_args(inv), "--out", str(out), "--threads", str(threads)],
            traced,
        )
        child.digest, child.out_bytes = dir_digest(out) if out.is_dir() else ("", 0)
        child.out_dir = out
        return child

    def judge(self, inv, child) -> None:
        """Count the invocation and check its exit code and outputs."""
        self.attempted += 1
        reason = self.verdict(inv, child)
        if reason is None:
            return
        known = bool(inv.known_defect) and inv.known_defect in child.stderr
        self.failed += 1
        self.unknown_failures += not known
        self.failures.append((inv.key, reason, known))

    def verdict(self, inv, child):
        cached = self.verdicts.get(inv.key)
        if cached and cached[:2] == (child.rc, child.digest):
            return cached[2]
        want = inv.expect.get("rc", 0)
        if child.rc != want:
            last = (child.stderr.strip().splitlines() or ["(no message)"])[-1]
            reason = f"exit {child.rc}, expected {want}: {last}"
        elif child.rc != 0:
            reason = None
        else:
            try:
                reason = reference.CHECKS[inv.command](
                    self.configs[inv.source], inv.expect, str(child.out_dir)
                )
            except (OSError, KeyError, ValueError) as exc:
                reason = f"unreadable output: {exc!r}"
        self.verdicts[inv.key] = (child.rc, child.digest, reason)
        return reason

    # ------------------------------------------------------------ phases

    def setup_times(self) -> list:
        """Mean wall time of --dump-normalized-config over every config the
        workload reads, once per round, for SETUP_ROUNDS rounds after one
        discarded dump."""
        sources = {}
        for inv in self.wl.invocations:
            sources.setdefault(inv.source, inv)
        rounds = []
        for k in range(SETUP_ROUNDS + 1):
            walls = []
            for inv in sources.values():
                child = self.spawn(
                    [inv.command, *self.source_args(inv), "--dump-normalized-config"], False
                )
                if child.rc != 0 or not child.stdout.strip():
                    self.unknown_failures += 1
                    self.failures.append((f"dump:{inv.source}", f"exit {child.rc}", False))
                walls.append(child.wall)
                if k == 0:
                    break  # warm-up: byte-compiles the package, fills the page cache
            if k > 0:
                rounds.append(statistics.fmean(walls))
        return rounds

    def run_pass(self, traced: bool) -> dict:
        record = {"children": [], "traced": traced}
        for inv in self.wl.invocations:
            child = self.invoke(inv, traced)
            self.judge(inv, child)
            record["children"].append((inv, child))
        return record

    def thread_check(self) -> None:
        """The same small simulate must write identical bytes at
        --threads 1 and --threads 2."""
        name = self.wl.thread_check
        if name is None:
            return
        inv = workloads.Invocation("simulate", name, expect={"rc": 0})
        one = self.invoke(inv, threads=1)
        self.judge(inv, one)
        two = self.invoke(inv, threads=2)
        self.attempted += 1
        if (two.rc, two.digest) != (one.rc, one.digest):
            self.failed += 1
            self.unknown_failures += 1
            self.failures.append((inv.key, "mc.csv differs between --threads 1 and 2", False))


# ---------------------------------------------------------------- metrics


def pass_metrics(record: dict) -> dict:
    children = record["children"]
    out = {
        "run_s": sum(c.wall for _, c in children),
        "cpu_s": sum(c.cpu for _, c in children),
        "peak_rss_mb": max(c.rss_mb for _, c in children),
    }
    for command, metric in COMMAND_METRICS.items():
        walls = [c.wall for inv, c in children if inv.command == command]
        if walls:
            out[metric] = sum(walls)
    return out


@dataclass
class Typical:
    wall: float
    cpu: float
    rss_mb: float


def typical_pass(records: list) -> dict:
    """One pass built from each invocation's median over the passes.

    Its sums are the reported figures: a slow spell of the machine that
    hits one invocation of one pass moves that invocation's median less
    than it moves the pass's sum.
    """
    children = []
    for k, (inv, _) in enumerate(records[0]["children"]):
        runs = [r["children"][k][1] for r in records]
        children.append((inv, Typical(
            wall=median([c.wall for c in runs]),
            cpu=median([c.cpu for c in runs]),
            rss_mb=median([c.rss_mb for c in runs]),
        )))
    return pass_metrics({"children": children})


def span_self(spans: list) -> list:
    """Self time of every span: its duration minus its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def traced_children(record: dict):
    for inv, child in record["children"]:
        if child.spans.exists():
            yield inv, child, json.loads(child.spans.read_text())


def layer_metrics(record: dict) -> dict:
    """Aggregate one traced pass's span files into the layer metrics."""
    totals = {name: 0.0 for name, _ in LAYER_METRICS}
    totals["cli.output.bytes"] = sum(c.out_bytes for _, c in record["children"])
    accounted = 0.0
    for _, _, doc in traced_children(record):
        spans = doc["spans"]
        for (name, start, end, parent, qty), own in zip(spans, span_self(spans)):
            if parent < 0:
                accounted += end - start
            if name == "cli.main":
                totals["cli.main.self_s"] += own
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0 and f"{name}.s" in totals:
                totals[f"{name}.s"] += end - start
            if f"{name}.calls" in totals:
                totals[f"{name}.calls"] += 1
            for kind, value in qty.items():
                key = f"{name}.{kind}"
                if kind == "rss_rise_mb":
                    totals[key] = max(totals[key], value)
                else:
                    totals[key] += value
        for name, calls in doc["counts"].items():
            totals[f"{name}.calls"] += calls
    totals["trace.wall_s"] = sum(c.wall for _, c in record["children"])
    totals["trace.unaccounted_s"] = totals["trace.wall_s"] - accounted
    return totals


def self_times(record: dict) -> dict:
    """Self time per span name, summed over one traced pass."""
    out = {}
    for _, _, doc in traced_children(record):
        for span, own in zip(doc["spans"], span_self(doc["spans"])):
            out[span[0]] = out.get(span[0], 0.0) + own
    return out


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------- report


def environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or commit
    src = hashlib.sha256()
    for f in sorted(PACKAGE.rglob("*")):
        if f.is_file() and f.suffix in (".py", ".yaml"):
            src.update(str(f.relative_to(PACKAGE)).encode() + b"\0" + f.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def show(name, unit, value, values):
    lo, hi = quartiles(values)
    print(f"  {name:<38} {value:>14.6g} {unit:<6} [q1 {lo:.6g}, q3 {hi:.6g}, n={len(values)}]")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="small sizes, for the self-check only")
    args = ap.parse_args(argv)

    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no ultranet sources under {PACKAGE}; run from a checkout root",
              file=sys.stderr)
        return 2
    run_start = time.perf_counter()
    shutil.rmtree(WORK, ignore_errors=True)
    wl = workloads.build(args.workload, args.seed, reduced=args.reduced)
    runner = Runner(wl)
    (WORK / "manifest.json").write_text(json.dumps(
        {"workload": wl.name, "seed": args.seed, "why": wl.why, "sizes": wl.sizes,
         "invocations": [i.key for i in wl.invocations]}, indent=1))

    print(f"workload {wl.name} (seed {args.seed}): {wl.why}")
    print(f"  closed loop, 1 client, {len(wl.invocations)} invocations per pass")
    for name, size in wl.sizes.items():
        print(f"  config {name}: {json.dumps(size)}")
    print("environment " + json.dumps(environment()))

    setup = runner.setup_times()
    runner.thread_check()

    plain, traced = [], []
    loop_start = time.perf_counter()
    while True:
        plain.append(runner.run_pass(traced=False))
        if args.trace:
            traced.append(runner.run_pass(traced=True))
        elapsed = time.perf_counter() - loop_start
        rounds = len(plain)
        if elapsed + 0.5 * elapsed / rounds > args.seconds:
            break
        if time.perf_counter() - run_start + elapsed / rounds > HARD_STOP:
            break
    (WORK / "passes.json").write_text(json.dumps({
        "setup_rounds": setup,
        "passes": [[[i.key, c.wall, c.cpu, c.rss_mb] for i, c in r["children"]]
                   for r in plain + traced],
        "traced": [r["traced"] for r in plain + traced],
    }))

    typical = typical_pass(plain)
    per_pass = [pass_metrics(r) for r in plain]
    print(f"end to end over {len(plain)} passes: sums of per-invocation medians "
          "[quartiles of whole-pass sums]:")
    show("setup_s", "s", median(setup), setup)
    for name, unit in END_TO_END[:3] + [(m, "s") for m in COMMAND_METRICS.values()]:
        if name in typical:
            show(name, unit, typical[name], [m[name] for m in per_pass])
    ops, fails = runner.attempted, runner.failed
    print(f"  {'fail_ratio':<38} {fails / ops:>14.6g} ratio  (base ops = {ops})")
    for k, inv in enumerate(wl.invocations):
        walls = [r["children"][k][1].wall for r in plain]
        print(f"    {inv.key:<36} {median(walls):>10.4f} s")
    for (key, reason, known), n in Counter(runner.failures).items():
        print(f"  {'known defect' if known else 'FAILED'} {key} (x{n}): {reason}")

    if args.trace:
        metrics = layer_report(plain, traced, typical, ops, fails)
    else:
        typical["setup_s"] = median(setup)
        metrics = {name: {"value": typical[name], "unit": unit} for name, unit in END_TO_END}
    result = {
        "correct": runner.unknown_failures == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def layer_report(plain, traced, typical, ops, fails) -> dict:
    layers = [layer_metrics(r) for r in traced]
    values = {name: median([m[name] for m in layers]) for name, _ in LAYER_METRICS}
    traced_run = typical_pass(traced)["run_s"]
    values["trace.overhead_s"] = traced_run - typical["run_s"]
    values["trace.unaccounted_s"] = median([m["trace.unaccounted_s"] for m in layers])
    for name in COMMAND_METRICS.values():
        values[name] = typical.get(name, 0.0)
    values["fail_ratio"] = fails / ops
    values["ops"] = ops
    print(f"per layer, medians over {len(traced)} traced passes:")
    for name, unit in LAYER_METRICS + PASS_METRICS:
        print(f"  {name:<38} {values[name]:>14.6g} {unit}")
    selfs = median_dict([self_times(r) for r in traced])
    print(f"self time by span name, per traced pass: {sum(selfs.values()):.4g} s of "
          f"{traced_run:.4g} s traced wall (the rest is interpreter start and exit)")
    for name, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<38} {s:>10.4f} s")
    print("per invocation: traced wall = spans + interpreter start and exit")
    for k, (inv, _) in enumerate(traced[0]["children"]):
        wall = median([r["children"][k][1].wall for r in traced])
        spans = median([sum(self_times({"children": [r["children"][k]]}).values())
                        for r in traced])
        print(f"    {inv.key:<36} {wall:>8.4f} s = {spans:.4f} + {wall - spans:.4f}")
    units = dict(LAYER_METRICS + PASS_METRICS)
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def median_dict(dicts: list) -> dict:
    keys = {k for d in dicts for k in d}
    return {k: median([d.get(k, 0.0) for d in dicts]) for k in keys}


if __name__ == "__main__":
    sys.exit(main())
