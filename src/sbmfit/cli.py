"""Command line interface.

Subcommands: sample, fit, eval, constant, sweep-separation, sweep-sparsity,
concentration, verify. Exit codes: 0 success, 1 property failure, 2 usage
error: a bad argument or input file, raised as an SbmfitError or OSError.
Any other exception is a bug and propagates with its traceback.
"""

import argparse
import json
import sys

from . import io as sbmio
from .errors import ParameterError, SbmfitError
from .graphs import Labeling, misclassification
from .metrics import nmi

# The experiments, search and plotting modules, and scipy.special behind
# them, are imported by the commands that use them, so `sample` and `eval`
# start without them.

USAGE_ERROR = 2
PROPERTY_FAILURE = 1


def _float_list(text):
    return [float(v) for v in text.replace(",", " ").split()]


def _separation(text):
    value = float(text)
    if value < 0:
        raise ValueError(f"separation must be nonnegative, got {value}")
    return value


def _separation_list(text):
    return [_separation(v) for v in text.replace(",", " ").split()]


def _int_list(text):
    return [int(v) for v in text.replace(",", " ").split()]


def _load_config_defaults(argv):
    """Pull --config key=value files in as parser defaults."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    defaults = {}
    if known.config:
        for line in sbmio._content_lines(known.config):
            key, _, value = line.partition("=")
            defaults[key.strip().replace("-", "_")] = value.strip()
    return defaults


def _build_parser():
    parser = argparse.ArgumentParser(prog="sbmfit")
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw a network from the block model")
    p.add_argument("--params", required=True, help="parameter file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-labels", required=True)

    p = sub.add_parser("fit", help="maximize an objective over labelings")
    p.add_argument("graph", help="edge list file")
    p.add_argument("--objective", choices=("ml", "icl"), default="ml")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--max-sweeps", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true", help="exhaustive search")
    p.add_argument("--no-header", action="store_true",
                   help="edge list file has no leading 'n k' line")
    p.add_argument("--out", required=True, help="labeling output file")
    p.add_argument("--meta", help="JSON-lines metadata output file")

    p = sub.add_parser("eval", help="compare two labeling files")
    p.add_argument("--true", dest="true_labels", required=True)
    p.add_argument("--pred", dest="pred_labels", required=True)

    p = sub.add_parser("constant", help="phase-transition constant for a parameter file")
    p.add_argument("--params", required=True)

    # Options shared by both sweeps. The subparsers share these Action
    # objects, so a --config default set on one applies to the other too.
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument("--n", type=int, default=200)
    sweep.add_argument("--k", type=int, default=2)
    sweep.add_argument("--reps", type=int, default=50)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--alpha", type=float, default=0.05)
    sweep.add_argument("--restarts", type=int, default=15)
    sweep.add_argument("--max-sweeps", type=int, default=60)
    sweep.add_argument("--out", required=True, help="rows CSV path")
    sweep.add_argument("--summary", help="summary CSV path")
    sweep.add_argument("--plot", help="SVG plot path")
    sweep.add_argument("--timing", action="store_true", help="write wall-clock runtimes")
    sweep.add_argument("--keep-labelings", help="directory for per-replicate labeling files")

    p = sub.add_parser("sweep-separation", parents=[sweep],
                       help="NMI against community separation")
    p.add_argument("--seps", type=_separation_list, required=True)

    p = sub.add_parser("sweep-sparsity", parents=[sweep], help="NMI against the sparsity scale")
    p.add_argument("--rhos", type=_float_list, required=True)
    p.add_argument("--separation", type=_separation, default=2.10)

    p = sub.add_parser("concentration", help="block-frequency concentration check")
    p.add_argument("--params", help="parameter file; default balanced k=3 model")
    p.add_argument("--n-list", type=_int_list, default=[100, 200, 400])
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--delta", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify", help="run the property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the report to a file as well")

    return parser


def _search_config(args):
    from .search import SearchConfig

    try:
        return SearchConfig(
            objective=getattr(args, "objective", "ml"),
            alpha=args.alpha,
            restarts=args.restarts,
            max_sweeps=args.max_sweeps,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ParameterError(str(exc)) from exc


def _cmd_sample(args):
    params = sbmio.read_params(args.params, n=args.n)
    from .sampling import sample

    z, g = sample(params, args.n, args.seed)
    sbmio.write_edge_list(args.out_graph, g, k=params.k)
    sbmio.write_labeling(args.out_labels, z)
    print(f"wrote {g.n} nodes, {g.edge_count} edges, {params.k} communities")
    return 0


def _cmd_fit(args):
    from .search import exact_argmax, greedy_argmax

    g, _ = sbmio.read_edge_list(args.graph, header=False if args.no_header else "auto")
    cfg = _search_config(args)
    if args.exact:
        fit = exact_argmax(g, args.k, cfg)
    else:
        fit = greedy_argmax(g, args.k, cfg)
    if not fit.converged:
        print(
            f"warning: the best restart was still moving nodes when it reached "
            f"--max-sweeps {args.max_sweeps}; the labeling may not be a local optimum",
            file=sys.stderr,
        )
    sbmio.write_labeling(args.out, fit.labeling)
    record = {
        "objective": fit.objective,
        "objective_value": float(f"{fit.objective_value:.12g}"),
        "sweeps_used": fit.sweeps_used,
        "restart_index": fit.restart_index,
        "feasible": fit.feasible,
        "n": g.n,
        "k": args.k,
        "alpha": args.alpha,
        "restarts": args.restarts,
        "seed": args.seed,
        "exact": bool(args.exact),
    }
    line = json.dumps(record, sort_keys=True)
    if args.meta:
        with open(args.meta, "a") as fh:
            fh.write(line + "\n")
    print(line)
    return 0


def _cmd_eval(args):
    z = sbmio.read_labeling(args.true_labels)
    e = sbmio.read_labeling(args.pred_labels)
    if z.n != e.n:
        raise ParameterError(f"labeling files differ in length: {z.n} vs {e.n} nodes")
    # n labels name at most n communities; a larger label would size the
    # k x k count matrices of nmi and misclassification by its value.
    for path, lab in ((args.true_labels, z), (args.pred_labels, e)):
        if lab.k > lab.n:
            raise ParameterError(f"label {lab.k} in {path!r} exceeds the number of "
                                 f"nodes {lab.n}")
    k = max(z.k, e.k)
    z = Labeling(z.labels, k)
    e = Labeling(e.labels, k)
    value = nmi(e, z)
    m = misclassification(e, z)
    print(f"nmi {value:.12g}")
    print(f"misclassified {m}")
    return 0


def _cmd_constant(args):
    from .theory import phase_constant_from_rates

    k, pi, s, _ = sbmio.read_rates(args.params)
    pc = phase_constant_from_rates(pi, s)
    print(f"constant {pc.value:.12g}")
    print(f"argmax_t {pc.argmax_t:.12g}")
    print(f"argmin_pair {pc.argmin_pair[0]} {pc.argmin_pair[1]}")
    print(f"ml_exact_recovery_at_log_n_over_n {'yes' if pc.ml_verdict() else 'no'} (needs >= 1)")
    print(
        f"icl_exact_recovery_at_log_n_over_n {'yes' if pc.icl_verdict(k) else 'no'} "
        f"(needs >= {1 + k * k})"
    )
    return 0


def _write_sweep_outputs(rows, args, key):
    from .experiments import objective_agreement_notes, rows_csv, summarize, summary_csv
    from .plotting import sweep_plot_svg

    if not rows:
        raise ParameterError("no grid point was fitted: the grid is empty or every point "
                             "was skipped")
    # Every output is rendered before any file is opened, so a failure
    # leaves no partial output behind.
    summary = summarize(rows, key=key)
    outputs = [(args.out, rows_csv(rows, include_timing=args.timing))]
    if args.summary:
        outputs.append((args.summary, summary_csv(summary, key=key)))
    if args.plot:
        label = "separation (sqrt(s1)-sqrt(s2))^2" if key == "separation" else "rho"
        outputs.append((args.plot, sweep_plot_svg(summary, x_label=label,
                                                  title=f"n={args.n}, k={args.k}")))
    for path, text in outputs:
        with open(path, "w") as fh:
            fh.write(text)
    for row in summary:
        print(
            f"{key}={row.grid:g} {row.objective}: mean nmi {row.mean_nmi:.4f} "
            f"+/- {row.se_nmi:.4f} ({row.reps} reps)"
        )
    for note in objective_agreement_notes(summary):
        print(note)


def _cmd_sweep_separation(args):
    from .experiments import sweep_separation

    cfg = _search_config(args)
    rows = sweep_separation(
        args.n, args.k, args.seps, args.reps, cfg, base_seed=args.seed,
        keep_labelings=args.keep_labelings,
    )
    _write_sweep_outputs(rows, args, "separation")
    return 0


def _cmd_sweep_sparsity(args):
    from .experiments import sweep_sparsity

    cfg = _search_config(args)
    rows = sweep_sparsity(
        args.n, args.k, args.rhos, args.reps, cfg, base_seed=args.seed,
        separation=args.separation, keep_labelings=args.keep_labelings,
    )
    _write_sweep_outputs(rows, args, "rho")
    return 0


def _cmd_concentration(args):
    from .experiments import (
        concentration_default_params,
        concentration_experiment,
        deviation_scale_diagnostic,
    )

    if not args.n_list:
        raise ParameterError("--n-list needs at least one n")
    reports = []
    for n in args.n_list:
        if args.params:
            params = sbmio.read_params(args.params, n=n)
        else:
            params = concentration_default_params(n)
        if not reports:
            params0 = params
        report = concentration_experiment(params, n, args.reps, args.delta, base_seed=args.seed)
        reports.append(report)
        print(
            f"n={report.n} rho={report.rho:.6g} delta={report.delta:g} "
            f"violation_fraction={report.violation_fraction:.4f} "
            f"sup_dev={report.empirical_sup_deviation:.6g} "
            f"radius={report.theoretical_bound:.6g} "
            f"w_self_max={report.w_self_max:.6g}"
        )
    fractions = [r.violation_fraction for r in reports]
    monotone = all(b <= a + 0.05 for a, b in zip(fractions, fractions[1:]))
    print(f"violation_fraction_nonincreasing_within_band {'yes' if monotone else 'no'}")
    n0 = args.n_list[0]
    diag = deviation_scale_diagnostic(params0, n0, flips=5, reps=min(args.reps, 100),
                                      base_seed=args.seed)
    print(
        f"deviation_diagnostic n={n0} p{diag['percentile']:g} sup|W|="
        f"{diag['sup_deviation_percentile']:.6g} fitted_c={diag['fitted_c']:.4g} "
        f"budget={diag['deviation_budget']:.6g} (reported, not asserted)"
    )
    return 0


def _cmd_verify(args):
    from .experiments import verify_all

    report = verify_all(seed=args.seed)
    text = report.render()
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0 if report.passed else PROPERTY_FAILURE


_COMMANDS = {
    "sample": _cmd_sample,
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "constant": _cmd_constant,
    "sweep-separation": _cmd_sweep_separation,
    "sweep-sparsity": _cmd_sweep_sparsity,
    "concentration": _cmd_concentration,
    "verify": _cmd_verify,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        defaults = _load_config_defaults(argv)
    except OSError as exc:
        parser.error(f"--config: {exc}")
    if defaults:
        for group_action in parser._subparsers._group_actions:
            for sub in group_action.choices.values():
                coerced = {}
                for action in sub._actions:
                    if action.dest not in defaults:
                        continue
                    raw = defaults[action.dest]
                    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
                        coerced[action.dest] = raw.lower() in ("1", "true", "yes")
                    elif action.type is not None:
                        try:
                            coerced[action.dest] = action.type(raw)
                        except ValueError as exc:
                            parser.error(f"--config {action.dest} = {raw!r}: {exc}")
                    else:
                        coerced[action.dest] = raw
                    action.required = False
                if coerced:
                    sub.set_defaults(**coerced)
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SbmfitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
