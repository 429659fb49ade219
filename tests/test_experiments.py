import warnings

import numpy as np
import pytest

from sbmfit.errors import ParameterError
from sbmfit.experiments import (
    SweepRow,
    balanced_params,
    concentration_default_params,
    concentration_experiment,
    deviation_scale_diagnostic,
    rows_csv,
    separation_to_s1,
    summarize,
    summary_csv,
    sweep_separation,
    sweep_sparsity,
    verify_all,
)
from sbmfit.graphs import Labeling, misclassification
from sbmfit.plotting import sweep_plot_svg
from sbmfit.sampling import derive_seed, sample
from sbmfit.search import SearchConfig
from sbmfit.theory import edge_count_deviation


def small_cfg(**kw):
    defaults = dict(objective="ml", alpha=0.05, restarts=3, max_sweeps=30, seed=0)
    defaults.update(kw)
    return SearchConfig(**defaults)


def test_separation_to_s1():
    assert separation_to_s1(0.0, 1.0) == pytest.approx(1.0)
    s1 = separation_to_s1(2.10, 1.0)
    assert (np.sqrt(s1) - 1.0) ** 2 == pytest.approx(2.10, abs=1e-12)


class TestSweeps:
    def test_rows_shape_and_determinism(self):
        cfg = small_cfg()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows1 = sweep_separation(40, 2, [0.0, 3.0], 2, cfg, base_seed=5)
            rows2 = sweep_separation(40, 2, [0.0, 3.0], 2, cfg, base_seed=5)
        assert len(rows1) == 2 * 2 * 2  # grid x reps x objectives
        assert rows_csv(rows1) == rows_csv(rows2)
        assert {r.objective for r in rows1} == {"ml", "icl"}
        for r in rows1:
            assert 0.0 <= r.nmi <= 1.0
            assert 0 <= r.misclassified <= r.n

    def test_csv_schema(self):
        cfg = small_cfg()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = sweep_separation(30, 2, [1.0], 1, cfg, base_seed=1)
        text = rows_csv(rows)
        header = text.splitlines()[0]
        assert header == "n,k,s1,s2,separation,rho,replicate_seed,objective,nmi,misclassified,runtime_ms"
        # timing suppressed by default for reproducible bytes
        assert all(line.endswith(",0.0") for line in text.splitlines()[1:])
        timed = rows_csv(rows, include_timing=True)
        assert timed != text

    def test_sparsity_sweep_carries_fixed_separation(self):
        cfg = small_cfg()
        rows = sweep_sparsity(30, 2, [0.05, 0.1], 1, cfg, base_seed=2, separation=2.10)
        assert {r.separation for r in rows} == {2.10}
        assert {r.rho for r in rows} == {0.05, 0.1}

    def test_out_of_range_grid_point_skipped_with_warning(self):
        cfg = small_cfg()
        with pytest.warns(UserWarning, match="skipping grid point"):
            rows = sweep_separation(20, 2, [0.5, 400.0], 1, cfg, base_seed=3)
        assert {r.separation for r in rows} == {0.5}

    @pytest.mark.parametrize("sweep,grid", [(sweep_separation, [400.0]),
                                            (sweep_sparsity, [5.0])])
    def test_skip_warning_names_the_caller(self, sweep, grid):
        with pytest.warns(UserWarning, match="skipping grid point") as record:
            assert sweep(20, 2, grid, 1, small_cfg(), base_seed=3) == []
        assert [w.filename for w in record] == [__file__]

    def test_summarize(self):
        rows = [
            SweepRow(10, 2, 2.0, 1.0, 0.5, 0.1, 1, "ml", 0.8, 2, 1.0),
            SweepRow(10, 2, 2.0, 1.0, 0.5, 0.1, 2, "ml", 0.6, 4, 1.0),
            SweepRow(10, 2, 2.0, 1.0, 0.5, 0.1, 1, "icl", 1.0, 0, 1.0),
        ]
        summary = summarize(rows, key="separation")
        ml = [s for s in summary if s.objective == "ml"][0]
        assert ml.mean_nmi == pytest.approx(0.7)
        assert ml.mean_misclassified == pytest.approx(3.0)
        assert ml.reps == 2
        text = summary_csv(summary, key="separation")
        assert text.splitlines()[0].startswith("separation,objective,")

    def test_plot_is_deterministic_svg(self):
        rows = [
            SweepRow(10, 2, 2.0, 1.0, 0.0, 0.1, 1, "ml", 0.1, 9, 0.0),
            SweepRow(10, 2, 4.0, 1.0, 2.0, 0.1, 1, "ml", 0.9, 1, 0.0),
            SweepRow(10, 2, 2.0, 1.0, 0.0, 0.1, 1, "icl", 0.2, 8, 0.0),
            SweepRow(10, 2, 4.0, 1.0, 2.0, 0.1, 1, "icl", 0.8, 2, 0.0),
        ]
        summary = summarize(rows, key="separation")
        svg1 = sweep_plot_svg(summary, x_label="separation")
        svg2 = sweep_plot_svg(summary, x_label="separation")
        assert svg1 == svg2
        assert svg1.startswith("<svg") and svg1.rstrip().endswith("</svg>")


class TestConcentration:
    def test_huge_delta_never_violated(self):
        params = balanced_params(2, 3.0, 1.0, 0.05)
        report = concentration_experiment(params, 80, 50, delta=1000.0, base_seed=1)
        assert report.violation_fraction == 0.0

    def test_tiny_delta_always_violated(self):
        params = balanced_params(2, 3.0, 1.0, 0.05)
        report = concentration_experiment(params, 80, 50, delta=1e-8, base_seed=1)
        assert report.violation_fraction == 1.0

    def test_w_self_deviation_exactly_zero(self):
        params = concentration_default_params(60)
        report = concentration_experiment(params, 60, 30, delta=4.0, base_seed=4)
        assert report.w_self_max == 0.0
        assert 0.0 <= report.violation_fraction <= 1.0
        assert report.replicates == 30

    def test_delta_must_be_finite_and_nonnegative(self):
        params = balanced_params(2, 3.0, 1.0, 0.05)
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ParameterError, match="delta"):
                concentration_experiment(params, 40, 2, delta=bad)
        report = concentration_experiment(params, 40, 2, delta=0.0)
        assert report.theoretical_bound == 0.0 and report.violation_fraction == 1.0

    def test_deviation_scale_diagnostic(self):
        params = balanced_params(2, 3.0, 1.0, 0.08)
        out = deviation_scale_diagnostic(params, 60, flips=5, reps=40, base_seed=3)
        assert out["fitted_c"] > 0.0
        assert np.isfinite(out["fitted_c"])
        assert out["sup_deviation_percentile"] > 0.0

    @pytest.mark.parametrize("flips", [0, 5, 60])
    def test_deviation_diagnostic_replicates_stand_alone(self, flips):
        # Replicate r samples from seed s = derive_seed(base, r) and draws
        # its flips from derive_seed(s, 1): it depends on its own seed alone.
        params = balanced_params(3, 3.0, 1.0, 0.08)
        n, reps, base = 60, 12, 3
        sups, ms = [], []
        for rep in range(reps):
            seed = derive_seed(base, rep)
            z, g = sample(params, n, seed)
            rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 1)))
            labels = z.labels.copy()
            idx = rng.choice(n, size=flips, replace=False)
            labels[idx] = (labels[idx] + 1 + rng.integers(0, 2, size=flips)) % 3
            e = Labeling(labels, 3)
            sups.append(float(np.abs(edge_count_deviation(g, e, z, params)).max()))
            ms.append(misclassification(e, z))
        out = deviation_scale_diagnostic(params, n, flips=flips, reps=reps, base_seed=base)
        assert out["sup_deviation_percentile"] == np.percentile(sups, 99.0)
        assert out["mean_misclassification"] == np.mean(ms)

    @pytest.mark.parametrize("k,flips,reps,named", [
        (2, -1, 5, "flips"),
        (2, 61, 5, "flips"),
        (1, 5, 5, "k >= 2"),
        (2, 5, 0, "reps"),
    ])
    def test_deviation_diagnostic_refuses_bad_arguments(self, k, flips, reps, named):
        params = balanced_params(k, 3.0, 1.0, 0.08)
        with pytest.raises(ParameterError, match=named):
            deviation_scale_diagnostic(params, 60, flips=flips, reps=reps)


class TestVerify:
    def test_all_pass_and_deterministic(self):
        r1 = verify_all(seed=3)
        r2 = verify_all(seed=3)
        assert r1.passed
        assert r1.render() == r2.render()
        assert "7/7 checks passed" in r1.render()

    def test_corrupted_tau_is_caught(self, monkeypatch):
        # Scaling tau by 1.5 breaks the plug-in objective. The gap check
        # reaches it through modularity_gap and must be the only one to fail.
        from sbmfit import modularity

        ml = modularity.ml_from_counters
        monkeypatch.setattr(modularity, "ml_from_counters", lambda counters: 1.5 * ml(counters))
        report = verify_all(seed=3)
        assert not report.passed
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == ["gap_within_bound"]


class TestKeepLabelings:
    def test_nmi_recomputable_from_stored_labelings(self, tmp_path):
        from sbmfit import nmi
        from sbmfit.io import read_labeling

        cfg = small_cfg()
        keep = tmp_path / "labelings"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rows = sweep_separation(30, 2, [0.0, 2.5], 2, cfg, base_seed=9,
                                    keep_labelings=str(keep))
        assert rows
        for row in rows:
            fitted = read_labeling(keep / f"{row.replicate_seed}_{row.objective}.labels", k=row.k)
            truth = read_labeling(keep / f"{row.replicate_seed}_true.labels", k=row.k)
            assert nmi(fitted, truth) == row.nmi


def test_objective_agreement_notes():
    from sbmfit.experiments import SummaryRow, objective_agreement_notes

    summary = [
        SummaryRow(1.0, "ml", 0.9, 0.0, 0.0, 5),
        SummaryRow(1.0, "icl", 0.6, 0.0, 0.0, 5),
        SummaryRow(2.0, "ml", 0.95, 0.0, 0.0, 5),
        SummaryRow(2.0, "icl", 0.97, 0.0, 0.0, 5),
    ]
    notes = objective_agreement_notes(summary)
    assert len(notes) == 1 and "grid 1" in notes[0]
