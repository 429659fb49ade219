"""Behaviour fingerprint: SHA-256 digests of deterministic outputs.

The digests were taken from the dense-adjacency implementation that preceded
the sparse core. A refactor must leave them unchanged; a deliberate change
of behaviour for existing seeds updates them and says so in CHANGES.md.
"""

import hashlib
import math
import warnings

import numpy as np

from sbmfit import SearchConfig, sample
from sbmfit.experiments import (
    balanced_params,
    rows_csv,
    summarize,
    summary_csv,
    sweep_separation,
    verify_all,
)
from sbmfit.io import write_edge_list


def sha256(data):
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def test_verify_report():
    assert sha256(verify_all(1).render()) == (
        "4d85bae6868819074a1f34c1b3081b537f5a9f2e2252926d509c04653183b9b3")


def test_sweep_csvs():
    cfg = SearchConfig(objective="ml", alpha=0.05, restarts=4, max_sweeps=20, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = (sweep_separation(60, 2, [0.5, 4.0], 2, cfg, base_seed=7)
                + sweep_separation(60, 3, [0.75, 6.0], 2, cfg, base_seed=7))
    summary = summarize(rows, key="separation")
    assert sha256(rows_csv(rows)) == (
        "ac6d92c8f73f3d2e593623ff5008ba019cc8d158fb2b5a111c7f86a24c76374c")
    assert sha256(summary_csv(summary, key="separation")) == (
        "992cfef2ddf9acaea2cfea0df9e0dead6572d3caf9e196def05fbeb82bd75658")


def test_sampled_edge_lists(tmp_path):
    # n = 600 has 179700 node pairs, several of the sampler's row blocks.
    n = 600
    params = balanced_params(2, 9.0, 1.0, math.log(n) / n)
    want = {
        1: "7120fbd5485f5988594492a8693c480fa4129a6de85abed6b00d3ed775b26d69",
        2: "4884bfb49b17a781e93d1d37cf433b6d71913f1a182aa67af434fae674fd8627",
    }
    for seed, digest in want.items():
        _, g = sample(params, n, seed)
        path = tmp_path / f"g{seed}.txt"
        write_edge_list(path, g, k=2)
        assert sha256(path.read_bytes()) == digest


def _float_stream(values):
    return "\n".join(float(v).hex() for v in values)


def test_objective_floats():
    # Every objective and identity value at full precision. The digests
    # above see objective values only through rounded text, so a rewrite of
    # the block ratios that moved one rounding would pass them unnoticed.
    from sbmfit import Graph, Labeling, SbmParams, block_counters
    from sbmfit.experiments import concentration_default_params, concentration_experiment
    from sbmfit.modularity import icl_from_counters, ml_from_counters
    from sbmfit.theory import ml_identity_residual, modularity_excess

    rng = np.random.Generator(np.random.PCG64(8080))
    values = []
    for _ in range(50):
        n = int(rng.integers(8, 41))
        k = int(rng.integers(1, 5))
        edges = np.argwhere(np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.95), k=1))
        g = Graph.from_edges(n, edges)
        # A shuffled round-robin e gives every community at least two nodes,
        # so the expected block densities are defined.
        e = Labeling(rng.permutation(np.arange(n) % k), k)
        z = Labeling(rng.integers(0, k, size=n), k)
        pi = rng.uniform(0.2, 1.0, size=k)
        s = rng.uniform(0.1, 1.8, size=(k, k))
        params = SbmParams(k=k, pi=pi / pi.sum(), s=(s + s.T) / 2.0, rho=0.5)
        for lab in (e, z):
            counters = block_counters(g, lab)
            values += [ml_from_counters(counters), icl_from_counters(counters)]
        values += [modularity_excess(g, e, z, params), ml_identity_residual(g, e, z, params)]
    report = concentration_experiment(concentration_default_params(60), 60, 5, 4.0, base_seed=3)
    values += [report.rho, report.delta, report.empirical_sup_deviation,
               report.theoretical_bound, report.violation_fraction, report.w_self_max]
    assert sha256(_float_stream(values)) == (
        "3c8e8e6afcf2e1cbb0bbd8bf9de978d24f74e379be4ad98fd25758700ab7c283")


def test_greedy_restart_tuples():
    # Serial greedy restarts at full precision, k >= 3 so that a move
    # chooses among several targets: the fits above are k <= 3 at n = 60
    # and see a potential only through the winner's rounded text.
    from sbmfit.search import _min_size, _run_restart

    n = 200
    lines = []
    for k in (3, 4):
        for s1 in (4.0 * k, 8.0 * k):
            _, g = sample(balanced_params(k, s1, 2.0, math.log(n) / n), n, seed=31 + k)
            for objective in ("ml", "icl"):
                cfg = SearchConfig(objective=objective, seed=17)
                min_size = _min_size(n, k, cfg)
                for restart in range(5):
                    potential, labels, sweeps, _, converged = _run_restart(
                        g, k, cfg, min_size, restart)
                    lines.append(f"{potential.hex()} {''.join(map(str, labels))} "
                                 f"{sweeps} {converged}")
    assert sha256("\n".join(lines)) == (
        "437d19f005d3491666783599871da81d7322d46b63800275c91850d357543d17")
