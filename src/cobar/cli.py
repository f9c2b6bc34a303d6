"""Command-line front-end for reproducible experiments.

Two subcommands:

* ``evaluate`` runs seeded k-fold cross-validation for the selected
  algorithms, prints the comparison table, and optionally writes the full
  machine-readable JSON report.
* ``predict`` trains on the whole file and explains a single prediction:
  blended value, user mean, chosen cluster (with member count and interval
  half-width) or the fallback that fired.

Clustering stores the n(n-1)/2 pairwise distances once, as float64,
4 * n * (n-1) bytes (34.3 MB at 3000 users), and both merge loops work
inside them.  Datasets with more than ``MAX_CLUSTERING_USERS`` users must
be reduced with ``--max-users`` (seeded user subsampling).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import kernels
from .baselines import KnnConfig, MfConfig
from .clustering import clusterable_users
from .core import CobarConfig, CobarModel, Fallback
from .data import ParseError, _check_fold_count, _check_user_cap, parse_ratings, subsample_users
from .evaluation import ALGORITHM_NAMES, _check_level, build_algorithms, run_cross_validation

MAX_CLUSTERING_USERS = 3000


def _seed(text: str) -> int:
    """A seed option's value: numpy's generators take no negative seed, so
    argparse refuses one, naming the option, before any work."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="rating file: user<delim>item<delim>rating per line")
    parser.add_argument(
        "--delimiter",
        default="tab",
        help="field delimiter: 'tab', 'comma', 'semicolon', 'space' or a literal string (default: tab)",
    )
    parser.add_argument("--skip-header", action="store_true", help="ignore the first line")
    parser.add_argument("--max-users", type=int, default=None, metavar="N",
                        help="subsample to at most N users before anything else")
    parser.add_argument("--subsample-seed", type=_seed, default=7, metavar="S",
                        help="seed for --max-users subsampling (default: 7)")


def _add_cobar_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gamma", type=float, default=CobarConfig.gamma,
                        help="weight of the user mean in the blend (default: %(default)s)")
    parser.add_argument("--confidence", type=float, default=CobarConfig.confidence_level,
                        help="confidence level for the cluster intervals (default: %(default)s)")
    parser.add_argument("--no-clamp", action="store_true",
                        help="do not clip predictions to the training rating scale")


def _add_baseline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--knn-k", type=int, default=KnnConfig.k, help="kNN neighborhood size (default: %(default)s)")
    parser.add_argument("--mf-factors", type=int, default=MfConfig.factors,
                        help="MF latent factors (default: %(default)s)")
    parser.add_argument("--mf-lr", type=float, default=MfConfig.learning_rate,
                        help="MF learning rate (default: %(default)s)")
    parser.add_argument("--mf-reg", type=float, default=MfConfig.regularization,
                        help="MF L2 regularization (default: %(default)s)")
    parser.add_argument("--mf-epochs", type=int, default=MfConfig.epochs, help="MF SGD epochs (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cobar", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("evaluate", help="k-fold cross-validated comparison")
    _add_data_args(ev)
    _add_cobar_args(ev)
    _add_baseline_args(ev)
    ev.add_argument("--algos", default=",".join(ALGORITHM_NAMES),
                    help=f"comma-separated algorithms from {{{','.join(ALGORITHM_NAMES)}}} (default: all)")
    ev.add_argument("--folds", type=int, default=10, help="cross-validation folds (default: 10)")
    ev.add_argument("--seed", type=_seed, default=42, help="fold-split and MF seed (default: 42)")
    ev.add_argument("--wilcoxon-level", type=float, default=0.99,
                    help="confidence level for the significance tests (default: 0.99)")
    ev.add_argument("--out", default=None, metavar="PATH", help="write the JSON report here")

    pr = sub.add_parser("predict", help="explain one prediction, trained on the full file")
    _add_data_args(pr)
    _add_cobar_args(pr)
    pr.add_argument("--user", required=True, help="external user id")
    pr.add_argument("--item", required=True, help="external item id")
    pr.add_argument("--dendrogram-out", default=None, metavar="PATH",
                    help="also export the merge tree as 'left right height new_id' lines")
    return parser


def _load_dataset(args):
    path = Path(args.data)
    if not path.exists():
        raise FileNotFoundError(f"rating file not found: {path}")
    dataset = parse_ratings(path, delimiter=args.delimiter, skip_header=args.skip_header, name=path.name)
    if args.max_users is not None:
        dataset = subsample_users(dataset, args.max_users, args.subsample_seed)
    return dataset


def _check_output_dir(path) -> None:
    """Fail before any work when the directory an output goes to is missing,
    or when the output path is a directory itself."""
    if path and Path(path).is_dir():
        raise IsADirectoryError(f"output path is a directory: {path}")
    if path and not Path(path).parent.is_dir():
        raise FileNotFoundError(f"output directory not found: {Path(path).parent} (for {path})")


def _check_clustering_budget(dataset) -> None:
    n = len(clusterable_users(dataset))
    if n > MAX_CLUSTERING_USERS:
        raise SystemExit(
            f"error: {n} users exceed the clustering budget of {MAX_CLUSTERING_USERS} "
            f"(the hierarchy needs n(n-1)/2 float64 distances, "
            f"{4 * n * (n - 1) / 2**20:.3g} MB for {n} users); "
            f"rerun with --max-users {MAX_CLUSTERING_USERS} (seeded via --subsample-seed)"
        )


# the library's own check of each option's value, by its argparse dest
_OPTION_CHECKS = {
    "gamma": lambda value: CobarConfig(gamma=value),
    "confidence": lambda value: CobarConfig(confidence_level=value),
    "knn_k": lambda value: KnnConfig(k=value),
    "mf_factors": lambda value: MfConfig(factors=value),
    "mf_lr": lambda value: MfConfig(learning_rate=value),
    "mf_reg": lambda value: MfConfig(regularization=value),
    "mf_epochs": lambda value: MfConfig(epochs=value),
    "folds": _check_fold_count,
    "wilcoxon_level": _check_level,
    "max_users": lambda value: value is None or _check_user_cap(value),
}


def _check_options(args) -> None:
    """Check the value of every option the subcommand has, before the rating
    file is read; a `ValueError` names the option."""
    for dest, check in _OPTION_CHECKS.items():
        if hasattr(args, dest):
            value = getattr(args, dest)
            try:
                check(value)
            except ValueError as exc:
                raise ValueError(f"--{dest.replace('_', '-')} {value}: {exc}") from None


def _cobar_config(args) -> CobarConfig:
    return CobarConfig(gamma=args.gamma, confidence_level=args.confidence)


def cmd_evaluate(args) -> int:
    _check_output_dir(args.out)
    _check_options(args)
    names = [n.strip() for n in args.algos.split(",") if n.strip()]
    algorithms = build_algorithms(
        names,
        cobar_config=_cobar_config(args),
        knn_config=KnnConfig(k=args.knn_k),
        mf_config=MfConfig(
            factors=args.mf_factors,
            learning_rate=args.mf_lr,
            regularization=args.mf_reg,
            epochs=args.mf_epochs,
            seed=args.seed,
        ),
        clamp=not args.no_clamp,
    )
    dataset = _load_dataset(args)
    if "cobar" in names:
        _check_clustering_budget(dataset)
    metadata = {
        "data_path": str(args.data),
        "gamma": args.gamma,
        "confidence_level": args.confidence,
        "clamp": not args.no_clamp,
        "knn_k": args.knn_k,
        "mf": {"factors": args.mf_factors, "learning_rate": args.mf_lr,
               "regularization": args.mf_reg, "epochs": args.mf_epochs},
        "max_users": args.max_users,
        "subsample_seed": args.subsample_seed if args.max_users is not None else None,
        "kernel_backend": kernels.BACKEND,
    }
    report = run_cross_validation(
        dataset,
        algorithms,
        folds=args.folds,
        seed=args.seed,
        wilcoxon_level=args.wilcoxon_level,
        metadata=metadata,
    )
    print(report.format_table())
    if args.out:
        report.save(args.out)
        print(f"\nreport written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    _check_output_dir(args.dendrogram_out)
    _check_options(args)
    dataset = _load_dataset(args)
    user = dataset.user_index(args.user)
    item = dataset.item_index(args.item)
    _check_clustering_budget(dataset)
    model = CobarModel(_cobar_config(args), clamp=not args.no_clamp).fit(dataset)
    if args.dendrogram_out:
        model.dendrogram.save(args.dendrogram_out)
        print(f"dendrogram written to {args.dendrogram_out}")
    pred = model.predict_detailed(user, item)

    print(f"user {args.user!r} x item {args.item!r}")
    print(f"  predicted rating : {pred.value:.4f}")
    if pred.user_mean is not None:
        print(f"  user mean        : {pred.user_mean:.4f}")
    if pred.fallback is Fallback.NONE:
        print(f"  cluster mean     : {pred.cluster_mean:.4f}")
        print(f"  chosen cluster   : node {pred.chosen_node} ({pred.cluster_size} users)")
        print(f"  interval half-width at {model.config.confidence_level:.0%}: {pred.half_width:.4f}")
    else:
        print(f"  fallback         : {pred.fallback.value}")
        if pred.fallback is Fallback.COLD_USER:
            print(f"  global mean      : {model.user_stats.global_mean:.4f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "evaluate":
            return cmd_evaluate(args)
        return cmd_predict(args)
    except (OSError, ParseError, KeyError, ValueError) as exc:
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
