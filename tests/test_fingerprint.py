"""Behaviour fingerprint: SHA-256 digests of deterministic outputs.

The digests were taken from the dense-adjacency implementation that preceded
the sparse core. A refactor must leave them unchanged; a deliberate change
of behaviour for existing seeds updates them and says so in CHANGES.md.
"""

import hashlib
import math
import warnings

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
