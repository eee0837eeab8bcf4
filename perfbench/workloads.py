"""Seeded workload generator.

A workload is a list of CLI invocations over bundled presets and
generated YAML configs. The seed fixes every random value (kernel
shapes, cross rates, datum tables); the sizes that set the cost (p, R,
basin count, time points, paths) are fixed per workload, so two seeds
cost the same work and differ only in the numbers the program sees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from reference import Network

PRESETS = ("single_basin", "conservative_two_basin", "dying_two_basin", "folding_demo")
SUBCOMMANDS = ("classify", "solve", "oracle", "tau", "simulate", "folding-demo")

WHY = {
    "presets": "many small jobs: every subcommand on every preset plus small seeded "
    "networks; start-up, imports and config handling dominate",
    "deep_tree": "few large spectral jobs (thousands of cells per basin, R up to 11) "
    "where the dense wavelet table, synthesis and mode-stack scan dominate",
    "long_grid": "shallow trees on long time axes: solve at ~1000 time points and a "
    "tau search that scans its full grid",
    "chain": "the dense chain oracle (expm on 512-1024 states) and the Monte Carlo "
    "sampler, which the spectral workloads bypass",
}

# The known defect kept visible in `presets`: a delta datum covers one
# basin only, so every multi-basin network refuses it with exit 2.
DELTA_DEFECT = "datum covers basins"


@dataclass
class Invocation:
    command: str
    source: str  # a preset name or a generated config name
    preset: bool = False
    expect: dict = field(default_factory=dict)  # rc and output expectations
    known_defect: str | None = None  # stderr text of a tolerated, counted failure

    @property
    def key(self) -> str:
        return f"{self.command}:{self.source}"


@dataclass
class Workload:
    name: str
    why: str
    configs: dict  # config name -> config mapping, dumped as YAML
    invocations: list
    sizes: dict  # config name -> what the generator chose
    thread_check: str | None = None  # simulate config rerun at --threads 2


# ---------------------------------------------------------------- networks


def _kernel(rng, levels):
    return [rng.uniform(0.5, 1.5) for _ in range(levels)]


def _scaled(cfg: dict, rate: float) -> dict:
    """Scale every rate so the fastest basin leaves at `rate` per unit
    time (loss_total / p), which pins jump counts and expm norms."""
    net = Network.from_config(cfg)
    c = rate / max(net.loss_total(a) / net.p for a in net.basins)
    kernels = cfg["kernels"]
    for side in ("w", "v"):
        kernels[side] = {b: [x * c for x in lv] for b, lv in kernels[side].items()}
    for side in ("lambda", "mu"):
        cfg["cross"][side] = {k: x * c for k, x in cfg["cross"][side].items()}
    return cfg


def dying_network(rng, p, basins, levels, rate=1.0, slow_cross=None) -> dict:
    """Strict loss dominance: v > w levelwise and mu[b->a] > p lam[a->b].

    Every basin lands in G2 and derived densities stay in [0, 1]. A
    `slow_cross` factor makes one cross gain that much slower than the
    rest, which stretches the crossing-search horizon to the grid cap.
    """
    w = {b: _kernel(rng, levels) for b in basins}
    v = {b: [x * rng.uniform(1.1, 1.5) for x in w[b]] for b in basins}
    lam, mu = {}, {}
    for a in basins:
        for b in basins:
            if a != b:
                lam[f"{a}->{b}"] = rng.uniform(0.2, 1.0)
                mu[f"{b}->{a}"] = p * lam[f"{a}->{b}"] * rng.uniform(1.1, 1.5)
    if slow_cross is not None:
        a, b = basins[0], basins[1]
        lam[f"{a}->{b}"] *= slow_cross
    cfg = {
        "prime": p,
        "basins": list(basins),
        "kernels": {"w": w, "v": v},
        "cross": {"lambda": lam, "mu": mu},
    }
    return _scaled(cfg, rate)


def growing_network(rng, p, basins, levels, rate=1.0) -> dict:
    """Gains equal losses (w = v, lam = mu) under the paper convention:
    the coarse chain has a growing mode, so the density crosses."""
    w = {b: _kernel(rng, levels) for b in basins}
    lam, mu = {}, {}
    for a in basins:
        for b in basins:
            if a != b:
                lam[f"{a}->{b}"] = mu[f"{b}->{a}"] = rng.uniform(0.5, 1.0)
    cfg = {
        "prime": p,
        "basins": list(basins),
        "convention": "paper",
        "kernels": {"w": w, "v": {b: list(x) for b, x in w.items()}},
        "cross": {"lambda": lam, "mu": mu},
    }
    return _scaled(cfg, rate)


def random_table(rng, p, basins, R, lo=0.0, hi=1.0) -> dict:
    return {b: [rng.uniform(lo, hi) for _ in range(p**R)] for b in basins}


def _grid(n, t_end):
    return [t_end * i / (n - 1) for i in range(n)]


def _sizes(cfg: dict, **extra) -> dict:
    net = Network.from_config(cfg)
    cells = net.p**net.resolution
    out = {
        "p": net.p,
        "basins": len(net.basins),
        "R": net.resolution,
        "cells_per_basin": cells,
        "modes": len(net.basins) * cells,
    }
    out.update(extra)
    return out


# ---------------------------------------------------------------- workloads


def _presets(rng, reduced):
    configs, sizes, inv = {}, {}, []
    classify = {
        "single_basin": {"g1": [0], "g2": []},
        "conservative_two_basin": {"g1": [0, 1], "g2": []},
        "dying_two_basin": {"g1": [], "g2": [0, 1]},
    }
    for preset in PRESETS:
        for command in SUBCOMMANDS:
            if command == "folding-demo" and preset != "folding_demo":
                continue  # needs an ivp2 datum, which only this preset has
            expect = {"rc": 0}
            if command == "classify":
                # documented: the demo network is outside both regimes
                expect = {"rc": 0, **classify[preset]} if preset in classify else {"rc": 3}
            inv.append(Invocation(command, preset, preset=True, expect=expect))
    if reduced:
        seen = set()
        inv = [i for i in inv if not (i.command in seen or seen.add(i.command))]
    shapes = [("p2", 2, [0], 3), ("p3", 3, [0, 1], 2), ("p5", 5, [0, 2, 4], 2)]
    for name, p, basins, R in shapes[1:] if reduced else shapes:
        cfg = dying_network(rng, p, basins, levels=min(R, 2))
        cfg.update(resolution=R, datum=random_table(rng, p, basins, R), times=[0.0, 0.5, 2.0])
        configs[name] = cfg
        sizes[name] = _sizes(cfg, times=3)
        if len(basins) == 3:
            inv.append(Invocation("classify", name, expect={"rc": 0, "g1": [], "g2": basins}))
        inv.append(Invocation("solve", name, expect={"rc": 0}))
    delta = dict(configs["p3"], datum="delta:0.0")
    configs["p3_delta"] = delta
    sizes["p3_delta"] = _sizes(delta, times=3, note="known defect: multi-basin delta datum")
    inv.append(Invocation("solve", "p3_delta", expect={"rc": 0}, known_defect=DELTA_DEFECT))
    return configs, sizes, inv


def _deep_tree(rng, reduced):
    configs, sizes, inv = {}, {}, []
    solves = [("solve_p2", 2, [0], 11), ("solve_p3", 3, [0], 7), ("solve_p5", 5, [0, 2, 4], 5)]
    taus = [("tau_r5", 5), ("tau_r6", 6)]
    if reduced:
        solves = [(n, p, b, R - 4 if p == 2 else R - 2) for n, p, b, R in solves]
        taus = [("tau_r3", 3), ("tau_r4", 4)]
    for name, p, basins, R in solves:
        cfg = dying_network(rng, p, basins, levels=3)
        cfg.update(resolution=R, datum=random_table(rng, p, basins, R), times=[0.0, 0.25, 1.0])
        configs[name] = cfg
        sizes[name] = _sizes(cfg, times=3)
        inv.append(Invocation("solve", name, expect={"rc": 0}))
    for name, R in taus:
        cfg = growing_network(rng, 2, [0, 1], levels=3)
        cfg.update(resolution=R, datum=random_table(rng, 2, [0, 1], R, 0.05, 0.5), threshold=0.99)
        configs[name] = cfg
        sizes[name] = _sizes(cfg, grid_steps=Network.from_config(cfg).grid_steps("paper"))
        inv.append(Invocation("tau", name, expect={"rc": 0, "crossing": True}))
    return configs, sizes, inv


def _long_grid(rng, reduced):
    configs, sizes, inv = {}, {}, []
    n_times = 100 if reduced else 1000
    for name, p, basins, R in [("solve_p2", 2, [0, 1], 4), ("solve_p3", 3, [0, 1], 3)]:
        cfg = dying_network(rng, p, basins, levels=2)
        cfg.update(resolution=R, datum=random_table(rng, p, basins, R), times=_grid(n_times, 10.0))
        configs[name] = cfg
        sizes[name] = _sizes(cfg, times=n_times)
        inv.append(Invocation("solve", name, expect={"rc": 0}))
    R = 2 if reduced else 3
    cfg = dying_network(rng, 2, [0, 1], levels=2, slow_cross=1e-3)
    cfg.update(resolution=R, datum=random_table(rng, 2, [0, 1], R, 0.0, 0.5), threshold=0.99)
    steps = Network.from_config(cfg).grid_steps("derived")
    if steps != 2_000_000:
        raise RuntimeError(f"long_grid tau grid has {steps} steps, expected the cap")
    configs["tau_flat"] = cfg
    sizes["tau_flat"] = _sizes(cfg, grid_steps=steps, note="derived, datum <= 0.5 < threshold")
    inv.append(Invocation("tau", "tau_flat", expect={"rc": 0, "crossing": False}))
    return configs, sizes, inv


def _chain(rng, reduced):
    configs, sizes, inv = {}, {}, []
    oracles = [("oracle_512", 8), ("oracle_1024", 9)]
    sims = [("sim_paths", 3, 20000, 2.0), ("sim_states", 6, 2000, 2.0)]
    if reduced:
        oracles = [("oracle_64", 5)]
        sims = [("sim_paths", 3, 2000, 1.0), ("sim_states", 4, 500, 1.0)]
    for name, R in oracles:
        cfg = dying_network(rng, 2, [0, 1], levels=3)
        cfg.update(resolution=R, datum=random_table(rng, 2, [0, 1], R), times=[0.1, 1.0, 4.0])
        configs[name] = cfg
        sizes[name] = _sizes(cfg, states=2 * 2**R, times=3)
        inv.append(Invocation("oracle", name, expect={"rc": 0}))
    for name, R, paths, t_max in sims + [("sim_threads", 2, 2000, 1.0)]:
        cfg = dying_network(rng, 2, [0, 1], levels=2)
        record = [t_max / 4, t_max / 2, t_max]
        cfg.update(resolution=R, datum=random_table(rng, 2, [0, 1], R), record_times=record,
                   t_max=t_max, paths=paths, seed=rng.randrange(2**32))
        configs[name] = cfg
        sizes[name] = _sizes(cfg, states=2 * 2**R, paths=paths, path_starts=paths * 2 * 2**R)
        if name != "sim_threads":  # run twice by the --threads check instead
            inv.append(Invocation("simulate", name, expect={"rc": 0}))
    return configs, sizes, inv


BUILDERS = {
    "presets": _presets,
    "deep_tree": _deep_tree,
    "long_grid": _long_grid,
    "chain": _chain,
}


def build(name: str, seed: int, reduced: bool = False) -> Workload:
    if name not in BUILDERS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(BUILDERS)}")
    rng = random.Random(f"{name}:{seed}")
    configs, sizes, invocations = BUILDERS[name](rng, reduced)
    thread_check = "sim_threads" if "sim_threads" in configs else None
    return Workload(name, WHY[name], configs, invocations, sizes, thread_check)
