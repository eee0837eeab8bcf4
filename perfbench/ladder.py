#!/usr/bin/env python3
"""Size ladders under the tracer, for the baseline notes in README.md.

    python3 perfbench/ladder.py [--seed N]

Run from the root of a source checkout. Each rung is one traced CLI
invocation on a generated config; the table shows how the layers that
the ROADMAP baseline names grow with problem size:

- import share of a small preset run;
- spectral init + synthesis against cells per basin;
- absorbing-time RSS rise against R;
- Monte Carlo time per start cell against states.
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys

import run
from workloads import Invocation, Workload, dying_network, growing_network, random_table


def rungs(seed: int):
    rng = random.Random(f"ladder:{seed}")
    configs, inv = {}, []
    for R in (8, 9, 10, 11):
        cfg = dying_network(rng, 2, [0], levels=3)
        cfg.update(resolution=R, datum=random_table(rng, 2, [0], R), times=[0.0, 1.0])
        configs[f"cells_{2**R}"] = cfg
        inv.append(Invocation("solve", f"cells_{2**R}"))
    for R in (4, 5, 6):
        cfg = growing_network(rng, 2, [0, 1], levels=3)
        cfg.update(resolution=R, datum=random_table(rng, 2, [0, 1], R, 0.05, 0.5))
        configs[f"tau_R{R}"] = cfg
        inv.append(Invocation("tau", f"tau_R{R}"))
    for R in (1, 3, 5, 7):
        cfg = dying_network(rng, 2, [0, 1], levels=1)
        cfg.update(resolution=R, datum=random_table(rng, 2, [0, 1], R),
                   record_times=[1.0], t_max=2.0, paths=2000, seed=seed)
        configs[f"states_{2 * 2**R}"] = cfg
        inv.append(Invocation("simulate", f"states_{2 * 2**R}"))
    inv.insert(0, Invocation("classify", "dying_two_basin", preset=True))
    return Workload("ladder", "size ladders", configs, inv, {})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if not (run.PACKAGE / "cli.py").is_file():
        print("error: run from the root of a source checkout", file=sys.stderr)
        return 2
    shutil.rmtree(run.WORK, ignore_errors=True)
    runner = run.Runner(rungs(args.seed))
    runner.setup_times()  # warm caches
    print(f"{'rung':<28} {'wall s':>8} {'rss MB':>8}  layers")
    for inv in runner.wl.invocations:
        child = runner.invoke(inv, traced=True)
        m = run.layer_metrics({"children": [(inv, child)]})
        if inv.command == "classify":
            share = m["import.ultranet_cli.s"] / child.wall
            note = (f"import {m['import.ultranet_cli.s']:.3f} s ({share:.0%} of wall), "
                    f"scipy.linalg {m['import.scipy_linalg.s']:.3f} s")
        elif inv.command == "solve":
            note = (f"init {m['spectral.init.s']:.3f} s, eval_density "
                    f"{m['spectral.eval_density.s']:.3f} s, wavelet tables "
                    f"{m['wavelets.wavelet_matrix.bytes'] / 2**20:.0f} MiB")
        elif inv.command == "tau":
            note = (f"absorbing_time {m['spectral.absorbing_time.s']:.3f} s, rss rise "
                    f"{m['spectral.absorbing_time.rss_rise_mb']:.0f} MB, grid "
                    f"{m['spectral.absorbing_time.grid_steps']:.0f} steps")
        else:
            starts = m["montecarlo.simulate.path_starts"] / 2000
            note = (f"simulate {m['montecarlo.simulate.s']:.3f} s, "
                    f"{1e3 * m['montecarlo.simulate.s'] / starts:.2f} ms per start cell")
        status = "" if child.rc == 0 else f" exit {child.rc}"
        print(f"{inv.key:<28} {child.wall:>8.3f} {child.rss_mb:>8.0f}  {note}{status}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
