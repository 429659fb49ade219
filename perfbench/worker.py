"""One benchmark worker: set up a workload, run its closed loop, report.

Started by run.py as a fresh interpreter, so that its peak RSS belongs to
one run. A single caller issues one operation at a time and waits for it
(closed loop). Only the operation windows are timed; correctness checks
run between them. With --setup-only the worker stops once set up, which
lets run.py sample set-up time several times per run.

    python3 perfbench/worker.py --workload sweep-n200 --seed 1 --seconds 30 \
        --trace 0 --workdir .perfbench_work/x --out result.json
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def bench_seed(*parts):
    """Benchmark-owned seed derivation, independent of sbmfit's derive_seed."""
    digest = hashlib.sha256(":".join(str(int(p)) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Stats:
    """What one pass over the operations measured and checked."""

    def __init__(self):
        self.windows = []
        self.latency_ms = []
        self.nmi = []
        self.attempted = 0
        self.failures = []
        self.agreed = 0
        self.compared = 0
        self.child_peak_rss_mb = 0.0
        self.digests = {}


class Workload:
    """A closed loop of operations; subclasses define set-up, order and checks."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None

    def round_ends_run(self, elapsed, seconds):
        """Called at each round boundary: stop here if one more round would end
        farther from `seconds` than stopping now."""
        last = elapsed - self.round_start
        self.round_start = elapsed
        return elapsed + last / 2 >= seconds

    def window(self, stats, fn, op=None):
        """Time one call of fn as an operation window, tracing it if asked."""
        if self.tracer is not None:
            if op is not None:
                self.tracer.set_op(op)
            self.tracer.enabled = True
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            if self.tracer is not None:
                self.tracer.enabled = False
            stats.windows.append((start, end))


class SweepN200(Workload):
    """Acceptance-07 separation grids at n=200, both objectives, rendered like the CLI."""

    GRIDS = {
        2: [0.0, 0.5, 1.0, 1.25, 1.5, 1.75, 2.0, 3.0, 4.0],
        3: [0.0, 0.75, 1.5, 2.25, 3.0, 3.75, 4.5, 5.25, 6.0],
    }
    # Replicates per round. k=3 fits cost about 2.5x k=2 fits, so fit times
    # form two clusters; three k=2 replicates per k=3 replicate put p90 inside
    # the k=3 cluster (and the traced median inside the k=2 cluster) instead
    # of in the gap between them.
    REPS = {2: 3, 3: 1}
    N = 200
    # At least three rounds, so every run has the same k mix and p90 has
    # tens of fits beyond it.
    MIN_FITS = 200

    def setup(self):
        from sbmfit import experiments, plotting, sampling, search

        self.experiments, self.plotting, self.sampling = experiments, plotting, sampling
        self.cfg = search.SearchConfig(objective="ml", alpha=0.05, restarts=15,
                                       max_sweeps=60, seed=0)
        self.min_size = math.ceil(self.cfg.alpha * self.N)
        self.captured = []
        fit_fn = experiments.greedy_argmax

        def capture(*args, **kwargs):
            fit = fit_fn(*args, **kwargs)
            self.captured.append(fit)
            return fit

        experiments.greedy_argmax = capture
        # Fill the per-n lookup tables and lazy imports before timing.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            z, g = sampling.sample(experiments.balanced_params(2, 4.0, 1.0, 0.0265), self.N, 0)
        for objective in ("ml", "icl"):
            cfg = search.SearchConfig(objective=objective, restarts=1, max_sweeps=1)
            fit_fn(g, 2, cfg)

    def ops(self):
        self.round_start = 0.0
        r = 0
        while True:
            for k in (2, 3):
                yield ("sweep", r, k)
            r += 1

    def done(self, stats, elapsed, seconds, op):
        return (op[2] == 2 and self.round_ends_run(elapsed, seconds)
                and len(stats.latency_ms) >= self.MIN_FITS)

    def run(self, op, stats):
        _, r, k = op
        reps = self.REPS[k]
        base = bench_seed(self.seed, r)
        if self.tracer is not None:
            derive = self.sampling.derive_seed
            seeds = {derive(base, gi, rep): f"k{k}:g{gi}:r{rep}"
                     for gi in range(len(self.GRIDS[k])) for rep in range(reps)}
            self.tracer.on_enter["sampling.sample"] = (
                lambda t, a, kw: t.set_op(seeds.get(int(a[2] if len(a) > 2 else kw["seed"]), "?")))
        expected = len(self.GRIDS[k]) * reps * 2  # one fit per objective
        stats.attempted += expected
        self.captured.clear()
        ex, pl = self.experiments, self.plotting

        def sweep():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rows = ex.sweep_separation(self.N, k, self.GRIDS[k], reps, self.cfg,
                                           base_seed=base)
            rows_text = ex.rows_csv(rows)
            summary = ex.summarize(rows, key="separation")
            summary_text = ex.summary_csv(summary, key="separation")
            pl.sweep_plot_svg(summary, x_label="separation (sqrt(s1)-sqrt(s2))^2",
                              title=f"n={self.N}, k={k}")
            return rows, rows_text, summary_text

        try:
            rows, rows_text, summary_text = self.window(stats, sweep, op=f"k{k}:r{r}")
        except Exception as exc:  # an operation that raises counts as failed
            stats.failures.append(f"sweep k={k} round {r}: {exc!r}")
            return
        if len(rows) != expected or len(self.captured) != expected:
            stats.failures.append(f"sweep k={k} round {r}: {len(rows)} rows, "
                                  f"{len(self.captured)} fits, expected {expected}")
        for row, fit in zip(rows, self.captured):
            sizes = fit.labeling.sizes()
            if not (0.0 <= row.nmi <= 1.0 and fit.feasible and sizes.min() >= self.min_size):
                stats.failures.append(
                    f"sweep k={k} seed {row.replicate_seed} {row.objective}: nmi {row.nmi}, "
                    f"feasible {fit.feasible}, sizes {sizes.tolist()}")
            stats.latency_ms.append(row.runtime_ms)
            stats.nmi.append(row.nmi)
        if r == 0:
            stats.digests[f"sweep_rows_k{k}"] = sha256_text(rows_text)
            stats.digests[f"sweep_summary_k{k}"] = sha256_text(summary_text)


class ExactN10(Workload):
    """Acceptance-06 toy instances through exact and greedy search, then verify_all."""

    N = 10
    VERIFY_SHARE = 0.8
    MIN_VERIFY = 3

    def setup(self):
        from sbmfit import experiments, metrics, sampling, search

        self.experiments, self.metrics, self.sampling, self.search = (
            experiments, metrics, sampling, search)
        # P = rho * S = [[0.9, 0.05], [0.05, 0.9]]
        self.params = experiments.balanced_params(2, 18.0, 1.0, 0.05)
        self.graph = None
        self.verify_text = None
        z, g = sampling.sample(self.params, self.N, 0)
        cfg = search.SearchConfig(objective="icl", alpha=0.2, restarts=1)
        search.exact_argmax(g, 2, cfg)
        search.greedy_argmax(g, 2, cfg)

    def ops(self):
        self.verify_phase = False
        self.round_start = 0.0
        i = 0
        while not self.verify_phase:
            for objective in ("ml", "icl"):
                yield ("instance", i, objective)
            i += 1
        j = 0
        while True:
            yield ("verify", j, None)
            j += 1

    def done(self, stats, elapsed, seconds, op):
        if op[0] == "instance":
            if op[2] == "ml" and elapsed >= self.VERIFY_SHARE * seconds:
                self.verify_phase = True
            self.round_start = elapsed
            return False
        return self.round_ends_run(elapsed, seconds) and op[1] >= self.MIN_VERIFY

    def run(self, op, stats):
        kind, i, objective = op
        stats.attempted += 1
        if kind == "verify":
            self._verify(i, stats)
            return
        if objective == "ml":
            self.graph = self.window(
                stats, lambda: self.sampling.sample(self.params, self.N, bench_seed(self.seed, i)),
                op=f"i{i}")
        z, g = self.graph
        cfg = self.search.SearchConfig(objective=objective, alpha=0.2, restarts=20,
                                       seed=bench_seed(self.seed, i, 1))

        def instance():
            return self.search.exact_argmax(g, 2, cfg), self.search.greedy_argmax(g, 2, cfg)

        try:
            exact, greedy = self.window(stats, instance, op=f"i{i}:{objective}")
        except Exception as exc:
            stats.failures.append(f"instance {i} {objective}: {exc!r}")
            return
        a, b = stats.windows[-1]
        stats.latency_ms.append((b - a) * 1000.0)
        gap = greedy.objective_value - exact.objective_value
        if gap > 1e-12 or not (exact.feasible and greedy.feasible):
            stats.failures.append(f"instance {i} {objective}: greedy - exact = {gap:.3e}, "
                                  f"feasible {exact.feasible}/{greedy.feasible}")
        stats.compared += 1
        stats.agreed += abs(gap) <= 1e-12
        stats.nmi.append(self.metrics.nmi(greedy.labeling, z))

    def _verify(self, j, stats):
        try:
            report = self.window(stats, lambda: self.experiments.verify_all(self.seed),
                                 op=f"verify{j}")
            text = report.render()
        except Exception as exc:
            stats.failures.append(f"verify_all call {j}: {exc!r}")
            return
        if self.verify_text is None:
            self.verify_text = text
        stats.digests.setdefault("verify_report", sha256_text(text))
        if not report.passed or text != self.verify_text:
            stats.failures.append(f"verify_all call {j}: passed {report.passed}, "
                                  f"same report as first call {text == self.verify_text}")


class CliFitN3000(Workload):
    """`sbmfit sample`, `fit --objective ml` and `fit --objective icl` as child processes."""

    N = 3000
    # Phase constant 1.25, above the ML recovery threshold of 1. At 2.0
    # (exactly 1) about one sampled graph in 25 leaves all ten restarts in a
    # wrong optimum, and those NMI-0 fits make the run's mean NMI bimodal.
    SEPARATION = 2.5
    COMMANDS = ("sample", "fit-ml", "fit-icl")
    # Fit time depends on the sampled graph; three cycles average over
    # inputs and make p90 an ICL fit command in every run.
    MIN_CYCLES = 3

    def setup(self):
        from sbmfit import io, metrics, modularity

        self.io, self.metrics, self.modularity = io, metrics, modularity
        s1 = (1.0 + math.sqrt(self.SEPARATION)) ** 2
        (self.workdir / "params.txt").write_text(
            "k = 2\npi = 0.5, 0.5\n"
            f"S = {s1!r}, 1.0\nS = 1.0, {s1!r}\n"
            "rho_mode = log_n_over_n\n")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
        self.span_files = []

    def ops(self):
        self.round_start = 0.0
        c = 0
        while True:
            for cmd in self.COMMANDS:
                yield (cmd, c)
            c += 1

    def done(self, stats, elapsed, seconds, op):
        return (op[0] == "sample" and self.round_ends_run(elapsed, seconds)
                and op[1] >= self.MIN_CYCLES)

    def _argv(self, cmd, c):
        d = f"c{c}"
        if cmd == "sample":
            # A replayed cycle starts clean, so `fit --meta` appends to an empty file.
            shutil.rmtree(self.workdir / d, ignore_errors=True)
            (self.workdir / d).mkdir()
            return ["sample", "--params", "params.txt", "--n", str(self.N),
                    "--seed", str(bench_seed(self.seed, c)),
                    "--out-graph", f"{d}/graph.txt", "--out-labels", f"{d}/truth.txt"]
        objective = cmd.split("-")[1]
        # The fit runs with the CLI's default search seed, as a user would.
        return ["fit", f"{d}/graph.txt", "--objective", objective, "--k", "2",
                "--restarts", "10", "--out", f"{d}/{objective}.txt",
                "--meta", f"{d}/{objective}.jsonl"]

    def run(self, op, stats):
        cmd, c = op
        stats.attempted += 1
        argv = self._argv(cmd, c)
        if self.tracer is None:
            prefix = [sys.executable, "-m", "sbmfit"]
        else:
            span_file = self.workdir / f"spans-c{c}-{cmd}.npz"
            self.span_files.append(span_file)
            prefix = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(span_file),
                      f"c{c}:{cmd}"]
        log = self.workdir / f"c{c}" / f"{cmd}.log"

        def command():
            with open(log, "w") as out:
                proc = subprocess.Popen(prefix + argv, cwd=self.workdir, env=self.env,
                                        stdout=out, stderr=subprocess.STDOUT)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0

        code, peak = self.window(stats, command)
        a, b = stats.windows[-1]
        stats.latency_ms.append((b - a) * 1000.0)
        stats.child_peak_rss_mb = max(stats.child_peak_rss_mb, peak)
        if code != 0:
            stats.failures.append(
                f"cycle {c} {cmd}: exit code {code}: {log.read_text()[-500:]!r}")
            return
        try:
            self._check(cmd, c, stats)
        except Exception as exc:
            stats.failures.append(f"cycle {c} {cmd}: output check raised {exc!r}")

    def _check(self, cmd, c, stats):
        d = self.workdir / f"c{c}"
        if cmd == "sample":
            self.graph = self.io.read_edge_list(d / "graph.txt")[0]
            self.truth = self.io.read_labeling(d / "truth.txt", k=2)
            if c == 0:
                stats.digests["cli_edge_list"] = hashlib.sha256(
                    (d / "graph.txt").read_bytes()).hexdigest()
            return
        objective = cmd.split("-")[1]
        label_text = (d / f"{objective}.txt").read_text()
        meta_text = (d / f"{objective}.jsonl").read_text()
        meta = json.loads(meta_text.splitlines()[-1])
        labels = label_text.split()
        fitted = self.io.read_labeling(d / f"{objective}.txt", k=2)
        sizes = fitted.sizes()
        score = (self.modularity.likelihood_modularity if objective == "ml"
                 else self.modularity.integrated_likelihood_modularity)
        recomputed = score(self.graph, fitted)
        problems = []
        if len(labels) != self.N:
            problems.append(f"{len(labels)} labels for n={self.N}")
        if sizes.min() < meta["alpha"] * self.N:
            problems.append(f"community sizes {sizes.tolist()} below alpha*n")
        if f"{recomputed:.12g}" != f"{meta['objective_value']:.12g}":
            problems.append(f"meta objective {meta['objective_value']!r} != recomputed "
                            f"{recomputed!r}")
        if problems:
            stats.failures.append(f"cycle {c} {cmd}: " + "; ".join(problems))
        stats.nmi.append(self.metrics.nmi(fitted, self.truth))
        if c == 0:
            stats.digests[f"cli_labels_{objective}"] = sha256_text(label_text)
            stats.digests[f"cli_meta_{objective}"] = sha256_text(meta_text)


WORKLOADS = {"sweep-n200": SweepN200, "cli-fit-n3000": CliFitN3000, "exact-n10": ExactN10}


def run_pass(workload, seconds, replay=None):
    """Run operations until `seconds` of loop time have passed, or replay a list of ops.

    Returns the pass statistics and the operations it ran.
    """
    stats = Stats()
    ran = []
    if replay is not None:
        for op in replay:
            workload.run(op, stats)
        return stats, list(replay)
    start = time.perf_counter()
    for op in workload.ops():
        if workload.done(stats, time.perf_counter() - start, seconds, op):
            break
        workload.run(op, stats)
        ran.append(op)
    return stats, ran


def end_to_end(stats):
    return {
        "success_rate": (stats.attempted - len(stats.failures)) / stats.attempted,
        "op_ms_p90": statistics.quantiles(stats.latency_ms, n=10, method="inclusive")[8],
        "mean_nmi": statistics.fmean(stats.nmi),
    }


# Layers whose self time is reported by name; the rest is summed into
# bench.other_layers_self_s so that every traced second is accounted for.
SELF_TIME_LAYERS = (
    "search.greedy_argmax", "search.exact_argmax", "graphs.block_counters",
    "graphs.misclassification", "metrics.nmi", "modularity.ml_from_counters",
    "modularity.icl_from_counters", "sampling.sample", "io.read_edge_list",
    "io.write_edge_list", "io.write_labeling", "cli.main", "experiments.sweep_separation",
    "plotting.sweep_plot_svg", "experiments.verify_all", "theory.phase_transition_constant",
    "theory.ml_identity_residual",
)
CALL_COUNT_LAYERS = (
    "search.greedy_argmax", "search.exact_argmax", "graphs.block_counters", "metrics.nmi",
    "modularity.ml_from_counters", "modularity.icl_from_counters", "sampling.sample",
    "theory.phase_transition_constant",
)


def per_layer(spans, stats, untraced_wall):
    import numpy as np

    totals, self_sum = tracing.layer_totals(spans)
    empty = {"calls": 0, "self_s": 0.0, "durations": np.zeros(0)}
    out = {}
    for name in CALL_COUNT_LAYERS:
        out[f"{name}.calls"] = totals.get(name, empty)["calls"]
    reported = 0.0
    for name in SELF_TIME_LAYERS:
        out[f"{name}.self_s"] = totals.get(name, empty)["self_s"]
        reported += out[f"{name}.self_s"]
    out["cli.import_s"] = totals.get("cli.import", empty)["self_s"]
    reported += out["cli.import_s"]
    greedy = totals.get("search.greedy_argmax", empty)["durations"]
    out["search.greedy_argmax.ms_p50"] = float(np.median(greedy)) * 1000.0 if greedy.size else 0.0
    counters = spans["counters"]

    def agg(key, fn):
        values = counters.get(key, [])
        return fn(values) if values else 0

    out["search.greedy_argmax.sweeps_used_mean"] = agg("search.greedy_argmax.sweeps_used",
                                                       statistics.fmean)
    out["search.greedy_argmax.peak_rss_mb"] = agg("search.greedy_argmax.peak_rss_mb", max)
    out["sampling.sample.peak_rss_mb"] = agg("sampling.sample.peak_rss_mb", max)
    out["graphs.block_counters.bytes_computed"] = agg("graphs.block_counters.bytes_computed",
                                                      sum)
    out["io.read_edge_list.bytes"] = agg("io.read_edge_list.bytes", sum)
    # exact_argmax calls block_counters once per scored labeling plus once to
    # finalize the winner.
    names = spans["names"]
    name_idx = np.asarray(spans["name_idx"])
    parent = np.asarray(spans["parent"])
    if "search.exact_argmax" in names and "graphs.block_counters" in names:
        exact_ids = np.flatnonzero(name_idx == names.index("search.exact_argmax"))
        bc = parent[name_idx == names.index("graphs.block_counters")]
        out["search.exact_argmax.labelings_scored"] = int(np.isin(bc, exact_ids).sum()
                                                          - exact_ids.size)
    else:
        out["search.exact_argmax.labelings_scored"] = 0
    out["search.greedy_optimal_rate"] = stats.agreed / stats.compared if stats.compared else 0.0
    traced_wall = sum(b - a for a, b in stats.windows)
    out["bench.other_layers_self_s"] = self_sum - reported
    out["bench.unattributed_s"] = tracing.unattributed(stats.windows, spans["start"],
                                                       spans["end"], spans["parent"])
    out["bench.traced_wall_s"] = traced_wall
    out["bench.trace_overhead_s"] = traced_wall - untraced_wall
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import scipy
    import sbmfit

    src = (ROOT / "src").resolve()
    if not Path(sbmfit.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"sbmfit imported from {sbmfit.__file__}, not from {src}")
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    ready = time.perf_counter()
    result = {"ready": ready, "versions": {
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if not args.setup_only:
        stats, ran = run_pass(workload, args.seconds)
        failures = list(stats.failures)
        attempted = stats.attempted
        if tracer is None:
            result["metrics"] = end_to_end(stats)
        else:
            untraced_wall = sum(b - a for a, b in stats.windows)
            workload.tracer = tracer
            stats, _ = run_pass(workload, args.seconds, replay=ran)
            failures += stats.failures
            attempted += stats.attempted
            parts = [tracer.arrays()] + [tracing.load_spans(p) for p in
                                         getattr(workload, "span_files", [])]
            spans = tracing.merge_spans(parts)
            tracing.save_spans(args.workdir / "spans.npz", spans)
            result["metrics"] = per_layer(spans, stats, untraced_wall)
            total_self = float(tracing.self_times(spans["start"], spans["end"],
                                                  spans["parent"]).sum())
            roots = float((spans["end"] - spans["start"])[spans["parent"] < 0].sum())
            if abs(total_self - roots) > 1e-6 * max(roots, 1.0):
                failures.append(f"self times sum to {total_self} but root spans cover {roots}")
        result.update(
            attempted=attempted, failures=failures, digests=stats.digests,
            child_peak_rss_mb=stats.child_peak_rss_mb, ops=len(ran))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
