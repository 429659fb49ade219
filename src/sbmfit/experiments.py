"""Figure-reproduction sweeps, concentration diagnostics and the verify suite."""

import dataclasses
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .graphs import (
    Graph,
    Labeling,
    block_counters,
    confusion,
    disagreement_fraction,
    hamming_distance,
    misclassification,
    pair_count_matrix,
)
from .io import write_labeling
from .metrics import nmi
from .modularity import modularity_gap
from .sampling import SbmParams, derive_seed, expected_block_density, expected_edge_counts, sample
from .search import SearchConfig, _GreedyState, exact_argmax, greedy_argmax
from .theory import edge_count_deviation, ml_identity_residual, phase_transition_constant


@dataclass(frozen=True)
class SweepRow:
    """One (grid point, replicate, objective) outcome of a sweep."""

    n: int
    k: int
    s1: float
    s2: float
    separation: float
    rho: float
    replicate_seed: int
    objective: str
    nmi: float
    misclassified: int
    runtime_ms: float


SWEEP_CSV_FIELDS = tuple(field.name for field in dataclasses.fields(SweepRow))


@dataclass(frozen=True)
class ConcentrationReport:
    """Replicated check of the block-frequency concentration radius."""

    n: int
    rho: float
    delta: float
    empirical_sup_deviation: float
    theoretical_bound: float
    replicates: int
    violation_fraction: float
    w_self_max: float


def separation_to_s1(separation, s2=1.0):
    """Solve (sqrt(s1) - sqrt(s2))^2 = separation for s1 with s1 >= s2."""
    if separation < 0:
        raise ValueError("separation must be nonnegative")
    return (math.sqrt(s2) + math.sqrt(separation)) ** 2


def balanced_params(k, s1, s2, rho):
    """Balanced pi with within-rate s1 and between-rate s2."""
    s = np.full((k, k), float(s2))
    np.fill_diagonal(s, float(s1))
    pi = np.full(k, 1.0 / k)
    return SbmParams(k=k, pi=pi, s=s, rho=rho)


def _fit_row(g, z_true, params, cfg, objective, replicate_seed, separation, keep_dir):
    fit_cfg = dataclasses.replace(
        cfg, objective=objective, seed=derive_seed(replicate_seed, 1)
    )
    start = time.perf_counter()
    fit = greedy_argmax(g, z_true.k, fit_cfg)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if keep_dir is not None:
        write_labeling(keep_dir / f"{replicate_seed}_{objective}.labels", fit.labeling)
    return SweepRow(
        n=g.n,
        k=z_true.k,
        s1=float(params.s[0, 0]),
        s2=float(params.s[0, 1]) if params.k > 1 else float(params.s[0, 0]),
        separation=separation,
        rho=params.rho,
        replicate_seed=replicate_seed,
        objective=objective,
        nmi=nmi(fit.labeling, z_true),
        misclassified=misclassification(fit.labeling, z_true),
        runtime_ms=elapsed_ms,
    )


def _sweep_grid(n, k, grid, reps, cfg, base_seed, param_builder, keep_labelings=None):
    if k < 2:
        raise ParameterError("sweeps need at least two communities")
    if reps < 1:
        raise ParameterError(f"reps must be >= 1, got {reps}")
    keep_dir = None if keep_labelings is None else Path(keep_labelings)
    rows = []
    for gi, grid_value in enumerate(grid):
        try:
            params, separation = param_builder(grid_value)
        except ParameterError as exc:
            warnings.warn(
                f"skipping grid point {grid_value!r}: {exc}", stacklevel=2
            )
            continue
        for rep in range(reps):
            replicate_seed = derive_seed(base_seed, gi, rep)
            z_true, g = sample(params, n, replicate_seed)
            if keep_dir is not None:
                keep_dir.mkdir(parents=True, exist_ok=True)
                write_labeling(keep_dir / f"{replicate_seed}_true.labels", z_true)
            for objective in ("ml", "icl"):
                rows.append(
                    _fit_row(
                        g, z_true, params, cfg, objective, replicate_seed, separation,
                        keep_dir,
                    )
                )
    return rows


def sweep_separation(n, k, separations, reps, cfg, base_seed=0, keep_labelings=None):
    """Sample and fit over a grid of within/between separations.

    Balanced communities, rho = log(n)/n, s2 = 1; s1 is solved from each
    requested separation. Both objectives are fitted per replicate. Grid
    points whose edge probabilities leave (0, 1) are skipped with a warning.
    With keep_labelings set, fitted and true labelings are written there
    (named by replicate seed) so every row's nmi can be recomputed.
    """
    rho = math.log(n) / n

    def build(sep):
        return balanced_params(k, separation_to_s1(sep), 1.0, rho), float(sep)

    return _sweep_grid(n, k, separations, reps, cfg, base_seed, build, keep_labelings)


def sweep_sparsity(n, k, rhos, reps, cfg, base_seed=0, separation=2.10, keep_labelings=None):
    """Sample and fit over a grid of sparsity scales at fixed separation, s2 = 1."""
    s1 = separation_to_s1(separation)

    def build(rho):
        return balanced_params(k, s1, 1.0, rho), float(separation)

    return _sweep_grid(n, k, rhos, reps, cfg, base_seed, build, keep_labelings)


def objective_agreement_notes(summary):
    """Soft check: ML and ICL mean NMI should track within 0.1.

    Returns human-readable notes for grid points where they do not;
    reported by callers, never a hard failure.
    """
    by_grid = {}
    for row in summary:
        by_grid.setdefault(row.grid, {})[row.objective] = row.mean_nmi
    notes = []
    for grid in sorted(by_grid):
        pair = by_grid[grid]
        if len(pair) == 2:
            gap = abs(pair["ml"] - pair["icl"])
            if gap > 0.1:
                notes.append(
                    f"note: ml and icl mean nmi differ by {gap:.3f} at grid {grid:g}"
                )
    return notes


@dataclass(frozen=True)
class SummaryRow:
    grid: float
    objective: str
    mean_nmi: float
    se_nmi: float
    mean_misclassified: float
    reps: int


def summarize(rows, key="separation"):
    """Aggregate sweep rows into per-(grid point, objective) means."""
    groups = {}
    for row in rows:
        groups.setdefault((getattr(row, key), row.objective), []).append(row)
    out = []
    for (grid, objective) in sorted(groups):
        rs = groups[(grid, objective)]
        nmis = np.array([r.nmi for r in rs])
        se = float(nmis.std(ddof=1) / math.sqrt(len(rs))) if len(rs) > 1 else 0.0
        out.append(
            SummaryRow(
                grid=grid,
                objective=objective,
                mean_nmi=float(nmis.mean()),
                se_nmi=se,
                mean_misclassified=float(np.mean([r.misclassified for r in rs])),
                reps=len(rs),
            )
        )
    return out


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_csv(rows, include_timing=False):
    """Render sweep rows as CSV text, deterministically.

    Wall-clock timing varies between runs, so runtime_ms is written as 0.0
    unless include_timing is set; byte-identical output for a fixed seed is
    part of the output contract.
    """
    lines = [",".join(SWEEP_CSV_FIELDS)]
    ordered = sorted(rows, key=lambda r: (r.separation, r.rho, r.replicate_seed, r.objective))
    for row in ordered:
        values = []
        for field in SWEEP_CSV_FIELDS:
            value = getattr(row, field)
            if field == "runtime_ms" and not include_timing:
                value = 0.0
            values.append(_fmt(value))
        lines.append(",".join(values))
    return "\n".join(lines) + "\n"


def summary_csv(summary, key="separation"):
    names = [field.name for field in dataclasses.fields(SummaryRow)]
    lines = [",".join([key] + names[1:])]
    for row in summary:
        lines.append(",".join(_fmt(getattr(row, name)) for name in names))
    return "\n".join(lines) + "\n"


def concentration_default_params(n):
    """Balanced k=3 diagnostic model for the concentration experiment.

    Rates are sized so each block's deviation-to-radius ratio sits near 1.5
    at n=200 under delta=4, where the violation fraction responds most
    steeply to n.
    """
    k, s_diag, s_off = 3, 0.523, 1.047
    s = np.full((k, k), s_off)
    np.fill_diagonal(s, s_diag)
    return SbmParams(k=k, pi=np.full(k, 1.0 / k), s=s, rho=math.log(n) / n)


def concentration_experiment(params, n, reps, delta, base_seed=0):
    """Check the sqrt(delta * rho * log n)/n radius on the true labeling.

    Samples networks, measures sup_ab |o_ab/n_ab - rho*S_ab| at the true
    labeling, and reports the fraction of replicates exceeding the radius.
    Also verifies that the centered edge-count deviation of the true
    labeling against itself is exactly zero.
    """
    if reps < 1:
        raise ParameterError(f"reps must be >= 1, got {reps}")
    if not (math.isfinite(delta) and delta >= 0):
        raise ParameterError(f"delta must be finite and >= 0, got {delta}")
    radius = math.sqrt(delta * params.rho * math.log(n)) / n
    violations = 0
    worst = 0.0
    w_self_max = 0.0
    p = params.p
    for rep in range(reps):
        z, g = sample(params, n, derive_seed(base_seed, rep))
        counters = block_counters(g, z)
        dev = np.where(counters.pair_counts > 0, counters.densities() - p, 0.0)
        sup = float(np.abs(dev).max())
        worst = max(worst, sup)
        if sup >= radius:
            violations += 1
        w = edge_count_deviation(g, z, z, params)
        w_self_max = max(w_self_max, float(np.abs(w).max()))
    return ConcentrationReport(
        n=n,
        rho=params.rho,
        delta=delta,
        empirical_sup_deviation=worst,
        theoretical_bound=radius,
        replicates=reps,
        violation_fraction=violations / reps,
        w_self_max=w_self_max,
    )


def deviation_budget(n, m, rho):
    """Finite-n deviation budget rho*m^2 + rho^2*m*n + 0.01*rho*(n + m*sqrt(n)).

    The scale against which centered edge-count deviations are compared in
    the concentration diagnostic; not a bound by itself.
    """
    return rho * m * m + rho * rho * m * n + 0.01 * rho * (n + m * math.sqrt(n))


def deviation_scale_diagnostic(params, n, flips, reps, base_seed=0):
    """Fit the constant c in max_ab |W_ab| <= c * rho * m / n, reported only.

    Draws replicates, perturbs the true labeling by relabeling `flips`
    nodes, and returns the 99th percentile of the sup deviation together with
    the implied c and the matching finite-n budget.
    """
    sups = []
    rng = np.random.Generator(np.random.PCG64(derive_seed(base_seed, 12345)))
    for rep in range(reps):
        z, g = sample(params, n, derive_seed(base_seed, rep))
        e_labels = z.labels.copy()
        idx = rng.choice(n, size=flips, replace=False)
        e_labels[idx] = (e_labels[idx] + 1 + rng.integers(0, params.k - 1, size=flips)) % params.k
        e = Labeling(e_labels, params.k)
        m = misclassification(e, z)
        w = edge_count_deviation(g, e, z, params)
        sups.append((float(np.abs(w).max()), m))
    qs = float(np.percentile([s for s, _ in sups], 99.0))
    mean_m = float(np.mean([m for _, m in sups]))
    scale = params.rho * max(mean_m, 1.0) / n
    return {
        "percentile": 99.0,
        "sup_deviation_percentile": qs,
        "mean_misclassification": mean_m,
        "fitted_c": qs / scale,
        "deviation_budget": deviation_budget(n, mean_m, params.rho),
    }


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    seed: int
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def render(self):
        lines = [f"verification seed {self.seed}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status} {c.name}: {c.detail}")
        npass = sum(1 for c in self.checks if c.passed)
        lines.append(f"{npass}/{len(self.checks)} checks passed")
        return "\n".join(lines) + "\n"


def _random_graph_labeling(rng, n, k, p_lo=0.1, p_hi=0.9):
    # The draw stays dense (one uniform per ordered pair) so that checks keep
    # their random streams; only the upper triangle becomes edges.
    p = rng.uniform(p_lo, p_hi)
    edges = np.argwhere(np.triu(rng.random((n, n)) < p, k=1))
    return Graph.from_edges(n, edges), Labeling(rng.integers(0, k, size=n), k)


def _random_params(rng, k):
    pi = rng.uniform(0.2, 1.0, size=k)
    pi = pi / pi.sum()
    s = rng.uniform(0.1, 1.8, size=(k, k))
    s = (s + s.T) / 2.0
    return SbmParams(k=k, pi=pi, s=s, rho=0.5)


def _check_closed_forms(seed):
    cases, tol = 20, 1e-9
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 0)))
    worst = 0.0
    for _ in range(cases):
        s1 = float(rng.uniform(0.05, 10.0))
        s2 = float(rng.uniform(0.05, 10.0))
        for k in (2, 3, 4, 5):
            expected = (math.sqrt(s1) - math.sqrt(s2)) ** 2 / k
            got = phase_transition_constant(balanced_params(k, s1, s2, 1e-3)).value
            worst = max(worst, abs(got - expected))
    return VerifyCheck(
        "closed_form_constants",
        worst <= tol,
        f"{cases} draws, k in 2..5, max abs error {worst:.3e} (tol {tol:.0e})",
    )


def _check_gap_bound(seed):
    cases = 200
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 1)))
    failures = 0
    for _ in range(cases):
        n = int(rng.integers(4, 41))
        k = int(rng.integers(1, 5))
        gap, bound = modularity_gap(*_random_graph_labeling(rng, n, k))
        if not 0.0 <= gap <= bound:
            failures += 1
    return VerifyCheck(
        "gap_within_bound",
        failures == 0,
        f"{cases} random instances, {failures} outside [0, k^2(log n + 2)/n^2]",
    )


def _check_l1_identity(seed):
    cases = 300
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 2)))
    failures = 0
    for _ in range(cases):
        n = int(rng.integers(2, 60))
        k = int(rng.integers(1, 6))
        e = Labeling(rng.integers(0, k, size=n), k)
        z = Labeling(rng.integers(0, k, size=n), k)
        if disagreement_fraction(e, z) != hamming_distance(e, z) / n:
            failures += 1
    return VerifyCheck(
        "confusion_l1_identity",
        failures == 0,
        f"{cases} random pairs, {failures} mismatches against the direct count",
    )


def _check_expectation_identity(seed):
    cases, tol = 100, 1e-10
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 3)))
    worst = 0.0
    done = 0
    while done < cases:
        n = int(rng.integers(4, 31))
        k = int(rng.integers(1, 4))
        params = _random_params(rng, k)
        e = Labeling(rng.integers(0, k, size=n), k)
        z = Labeling(rng.integers(0, k, size=n), k)
        if (e.sizes() <= 1).any():
            continue
        direct = expected_edge_counts(e, z, params)
        via_r = pair_count_matrix(e.sizes()) * expected_block_density(
            confusion(e, z), params, n
        )
        denom = np.maximum(np.abs(direct), 1e-30)
        worst = max(worst, float(np.max(np.abs(direct - via_r) / denom)))
        done += 1
    return VerifyCheck(
        "conditional_expectation_identity",
        worst <= tol,
        f"{cases} draws, max relative error {worst:.3e} (tol {tol:.0e})",
    )


def _check_x_decomposition(seed):
    cases, tol = 100, 1e-10
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 4)))
    worst = 0.0
    done = 0
    while done < cases:
        n = int(rng.integers(6, 31))
        k = int(rng.integers(1, 4))
        params = _random_params(rng, k)
        g, z = _random_graph_labeling(rng, n, k)
        e = Labeling(rng.integers(0, k, size=n), k)
        if e.sizes().min() <= 1:
            continue
        worst = max(worst, ml_identity_residual(g, e, z, params))
        done += 1
    return VerifyCheck(
        "excess_decomposition",
        worst <= tol,
        f"{cases} draws, max abs residual {worst:.3e} (tol {tol:.0e})",
    )


def _check_greedy_vs_exact(seed):
    cases = 20
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 5)))
    attained = 0
    ordered = True
    params = balanced_params(2, 18.0, 1.0, 0.05)
    for case in range(cases):
        z, g = sample(params, 8, int(rng.integers(0, 2**62)))
        cfg = SearchConfig(objective="ml", alpha=0.2, restarts=10, seed=case)
        exact = exact_argmax(g, 2, cfg)
        greedy = greedy_argmax(g, 2, cfg)
        if greedy.objective_value > exact.objective_value + 1e-12:
            ordered = False
        if abs(greedy.objective_value - exact.objective_value) <= 1e-12:
            attained += 1
    return VerifyCheck(
        "greedy_vs_exact",
        ordered and attained >= int(0.75 * cases),
        f"{cases} instances, optimum attained {attained} times, exact >= greedy {ordered}",
    )


def _check_incremental(seed):
    cases, tol = 20, 1e-9
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 6)))
    worst = 0.0
    for case in range(cases):
        n = int(rng.integers(12, 30))
        k = int(rng.integers(2, 4))
        g, z = _random_graph_labeling(rng, n, k, p_lo=0.2, p_hi=0.8)
        objective = "ml" if case % 2 == 0 else "icl"
        state = _GreedyState(g, k, z.labels, objective)
        potential = state.full_potential()
        scale = 2.0 * n * n if objective == "ml" else float(n * n)
        for i in rng.permutation(n):
            a = int(state.z[i])
            d = state.table[i]
            for b in range(k):
                if b == a:
                    continue
                delta = state.best_move(a, d, (b,))[0]
                if delta > 0:
                    state.apply_move(int(i), b, d)
                    potential += delta
                    err = abs(potential - state.full_potential()) / scale
                    worst = max(worst, err)
                    break
    return VerifyCheck(
        "incremental_vs_recompute",
        worst <= tol,
        f"{cases} trajectories, max abs drift {worst:.3e} (tol {tol:.0e})",
    )


def verify_all(seed=0):
    """Run the property suite and return a deterministic report."""
    checks = (
        _check_closed_forms(seed),
        _check_gap_bound(seed),
        _check_l1_identity(seed),
        _check_expectation_identity(seed),
        _check_x_decomposition(seed),
        _check_greedy_vs_exact(seed),
        _check_incremental(seed),
    )
    return VerificationReport(seed=seed, checks=checks)
