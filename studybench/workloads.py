"""The four study workloads.

A workload is a list of ``nipg2d study`` invocations, each written as the
flat ``key = value`` settings a study config file would hold, so that the
benchmark builds its configs through the same ``cli.build_config`` path as
the command.  NOTES.md records why each workload was chosen.
"""

import argparse
import random

from nipg2d import cli

WORKLOADS = ("k1-chain", "hp-chain", "eps-sweep", "iter-strong")

#: eps-sweep draws this many eps values, log-uniform over [1e-10, 1e-4]
EPS_SWEEP_COUNT = 11
EPS_SWEEP_LOG10_RANGE = (-10.0, -4.0)


def _chain(n_max):
    """Doubling mesh sequence 8, 16, ... up to ``n_max``."""
    return ", ".join(str(8 << i) for i in range(5) if 8 << i <= n_max)


def settings(name, seed, n_max=None):
    """Config-file settings of each study invocation of workload ``name``.

    ``seed`` draws the eps values of ``eps-sweep``; the other workloads
    have fixed grids.  ``n_max`` truncates every doubling chain (the
    benchmark's own tests use 16).
    """
    cap = n_max or 128
    if name == "k1-chain":
        return [{"k": "1", "eps": "1e-5", "n": _chain(min(cap, 128))}]
    if name == "hp-chain":
        return [{"k": "2", "eps": "1e-6", "n": _chain(min(cap, 64))},
                {"k": "3", "eps": "1e-5", "n": _chain(min(cap, 32))}]
    if name == "eps-sweep":
        rng = random.Random(seed)
        lo, hi = EPS_SWEEP_LOG10_RANGE
        eps = sorted((10.0 ** rng.uniform(lo, hi)
                      for _ in range(EPS_SWEEP_COUNT)), reverse=True)
        return [{"k": "1", "eps": ", ".join(format(e, ".4e") for e in eps),
                 "n": _chain(min(cap, 32))}]
    if name == "iter-strong":
        return [{"k": "1", "eps": "1e-4, 1e-8", "n": _chain(min(cap, 64)),
                 "solver": "iterative", "dirichlet": "strong"}]
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def build_configs(raw_settings):
    """Turn settings into validated ``StudyConfig`` objects, as the
    ``nipg2d study`` command does with a config file and no overrides."""
    no_overrides = argparse.Namespace(k=None, eps=None, n=None, solver=None,
                                      quad_order=None, out_csv=None,
                                      out_md=None)
    configs = [cli.build_config(raw, no_overrides) for raw in raw_settings]
    for config in configs:
        config.validate()
    return configs


def cells(configs):
    """The (k, eps, N) cells of ``configs`` in the order run_study runs
    them."""
    return [(k, eps, n)
            for config in configs
            for k in config.k_list
            for eps in config.eps_list
            for n in config.n_list_for(k)]
