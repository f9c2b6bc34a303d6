"""RMSE, Wilcoxon signed-rank testing, and the cross-validated experiment runner.

The experiment protocol: split the ratings into k seeded folds, train every
algorithm on each fold's training portion, predict the held-out triples,
and compare algorithms pairwise with a two-sided Wilcoxon signed-rank test
over the k paired per-fold RMSE values (the pairing unit is recorded in the
report metadata).  For small samples the test p-value is exact, obtained by
enumerating the sign-assignment distribution of the statistic.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Callable, Mapping, Sequence

import numpy as np

from ._special import ndtr
from .baselines import ItemKnn, KnnConfig, MatrixFactorization, MfConfig, MostPopular, UserKnn
from .core import CobarConfig, CobarModel
from .data import RatingDataset, fold_train_test, kfold_split

EXACT_WILCOXON_LIMIT = 25   # exact enumeration up to this many nonzero differences


def rmse(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Root mean square error between aligned prediction/target sequences."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape:
        raise ValueError(f"length mismatch: {predicted.shape} vs {actual.shape}")
    if predicted.size == 0:
        raise ValueError("RMSE undefined on an empty prediction list")
    return float(np.sqrt(np.mean((predicted - actual) ** 2)))


@dataclass
class WilcoxonResult:
    statistic: float          # min(W+, W-) over nonzero differences
    p_value: float            # two-sided
    significant: bool
    n_nonzero: int
    method: str               # "exact" or "normal"


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of `values`, tied values sharing the mean of their
    ranks: scipy's `rankdata(values, method="average")`, bit for bit."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    # a run of equal values in sorted slots [start, end) holds ranks
    # start+1 .. end, whose mean (start + 1 + end) / 2 is exact
    ranks = np.empty(len(values), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def _check_level(level: float) -> None:
    # the negated test also rejects NaN
    if not 0.0 < level < 1.0:
        raise ValueError(f"Wilcoxon level must be in (0, 1), got {level}")


def _exact_two_sided_p(doubled_ranks: np.ndarray, doubled_stat: int) -> float:
    """P-value from the full sign-assignment distribution of the statistic.

    Ranks are doubled so tied (x.5) average ranks become integers; the
    distribution of 2*W+ is built by dynamic programming over the 2^m
    assignments, which is exact because every count stays below 2^53.
    """
    total = int(doubled_ranks.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled_ranks:
        r = int(r)
        counts[r:] = counts[r:] + counts[:-r]
    m = len(doubled_ranks)
    tail = int(counts[: doubled_stat + 1].sum())
    return min(2.0 * tail / float(2**m), 1.0)


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float], level: float = 0.99) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; tied absolute differences get average
    ranks.  Up to 25 nonzero differences the p-value is exact; beyond that
    a normal approximation with tie correction and continuity correction is
    used.  `significant` is `p < 1 - level`.

    Raises ValueError for a level outside (0, 1) or NaN, when a sample is
    NaN or infinite, or when the samples are identical (no nonzero
    differences), where the test is undefined.
    """
    _check_level(level)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"paired samples must have equal length, got {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("paired samples must be finite")
    diffs = a - b
    diffs = diffs[diffs != 0.0]
    m = len(diffs)
    if m == 0:
        raise ValueError("signed-rank test undefined on identical samples")

    ranks = _average_ranks(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    w_minus = float(ranks[diffs < 0].sum())
    statistic = min(w_plus, w_minus)

    if m <= EXACT_WILCOXON_LIMIT:
        doubled = np.rint(ranks * 2.0).astype(np.int64)
        p = _exact_two_sided_p(doubled, int(round(statistic * 2.0)))
        method = "exact"
    else:
        mean = m * (m + 1) / 4.0
        _, tie_counts = np.unique(np.abs(diffs), return_counts=True)
        tie_term = float(np.sum(tie_counts**3 - tie_counts)) / 48.0
        var = m * (m + 1) * (2 * m + 1) / 24.0 - tie_term
        z = (statistic - mean + 0.5) / math.sqrt(var)
        p = min(2.0 * float(ndtr(z)), 1.0)
        method = "normal"

    return WilcoxonResult(
        statistic=statistic,
        p_value=p,
        significant=bool(p < (1.0 - level)),
        n_nonzero=m,
        method=method,
    )


@dataclass
class EvalReport:
    """Per-fold RMSE values per algorithm plus pairwise significance tests."""

    dataset_name: str
    algorithms: list[str]
    folds: int
    seed: int
    fold_rmse: dict[str, list[float]]
    wilcoxon: list[dict]
    wilcoxon_level: float
    metadata: dict = field(default_factory=dict)

    @property
    def mean_rmse(self) -> dict[str, float]:
        return {name: float(np.mean(values)) for name, values in self.fold_rmse.items()}

    def best_algorithm(self) -> str:
        means = self.mean_rmse
        return min(self.algorithms, key=lambda name: means[name])

    def to_dict(self) -> dict:
        return {
            "schema": "cobar-eval-report/1",
            "dataset": self.dataset_name,
            "folds": self.folds,
            "seed": self.seed,
            "algorithms": self.algorithms,
            "results": {
                name: {"fold_rmse": self.fold_rmse[name], "mean_rmse": self.mean_rmse[name]}
                for name in self.algorithms
            },
            "wilcoxon": self.wilcoxon,
            "wilcoxon_level": self.wilcoxon_level,
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    def format_table(self) -> str:
        """Comparison table at 4 decimals; `*` marks the best mean RMSE."""
        means = self.mean_rmse
        best = self.best_algorithm()
        width = max(12, len(self.dataset_name) + 2)
        header = f"{'dataset':<{width}}" + "".join(f"{name:>12}" for name in self.algorithms)
        cells = "".join(
            f"{f'{means[name]:.4f}' + ('*' if name == best else ''):>12}"
            for name in self.algorithms
        )
        lines = [header, f"{self.dataset_name:<{width}}" + cells]
        if self.wilcoxon:
            alpha = 1.0 - self.wilcoxon_level
            lines.append("")
            lines.append(f"pairwise Wilcoxon on per-fold RMSE (two-sided, alpha={alpha:g}):")
            for rec in self.wilcoxon:
                if rec.get("p_value") is None:
                    lines.append(f"  {rec['a']} vs {rec['b']}: undefined ({rec['note']})")
                else:
                    verdict = "significant" if rec["significant"] else "not significant"
                    lines.append(
                        f"  {rec['a']} vs {rec['b']}: W={rec['statistic']:g}"
                        f" p={rec['p_value']:.4f} {verdict}"
                    )
        return "\n".join(lines)


def run_cross_validation(
    dataset: RatingDataset,
    algorithms: Mapping[str, Callable[[], object]],
    folds: int = 10,
    seed: int = 42,
    wilcoxon_level: float = 0.99,
    metadata: dict | None = None,
) -> EvalReport:
    """k-fold evaluation of every algorithm on identical splits.

    `algorithms` maps a name to a zero-argument factory producing a fresh
    unfitted predictor (`fit(train)` / `predict(user, item)`).  Cold-start
    test pairs are included in the RMSE; every predictor defines a fallback,
    so coverage is total.  A `wilcoxon_level` outside (0, 1) is rejected
    before the first fold.  `folds` and `seed` are read by `operator.index`
    and the level by `float`, so a report of numpy scalars saves as one of
    Python scalars does.
    """
    _check_level(wilcoxon_level)
    folds, seed, wilcoxon_level = operator.index(folds), operator.index(seed), float(wilcoxon_level)
    split = kfold_split(dataset, folds, seed)
    names = list(algorithms)
    fold_rmse: dict[str, list[float]] = {name: [] for name in names}

    for fold in range(folds):
        train, test_idx = fold_train_test(dataset, split, fold)
        # Python ints, which every predictor reads fastest
        test_users = dataset.users[test_idx].tolist()
        test_items = dataset.items[test_idx].tolist()
        test_ratings = dataset.ratings[test_idx]
        for name in names:
            model = algorithms[name]()
            model.fit(train)
            predicted = np.fromiter(
                (model.predict(u, i) for u, i in zip(test_users, test_items)),
                dtype=np.float64,
                count=len(test_idx),
            )
            fold_rmse[name].append(rmse(predicted, test_ratings))

    pairwise = []
    for a, b in combinations(names, 2):
        record = {"a": a, "b": b, "alpha": 1.0 - wilcoxon_level}
        try:
            record.update(asdict(wilcoxon_signed_rank(fold_rmse[a], fold_rmse[b], wilcoxon_level)))
        except ValueError as exc:
            record.update(statistic=None, p_value=None, significant=False, note=str(exc))
        pairwise.append(record)

    meta = {"wilcoxon_pairing": "per-fold-rmse", "n_users": dataset.n_users,
            "n_items": dataset.n_items, "n_ratings": dataset.n_ratings}
    if metadata:
        meta.update(metadata)
    return EvalReport(
        dataset_name=dataset.name or "dataset",
        algorithms=names,
        folds=folds,
        seed=seed,
        fold_rmse=fold_rmse,
        wilcoxon=pairwise,
        wilcoxon_level=wilcoxon_level,
        metadata=meta,
    )


ALGORITHM_NAMES = ("cobar", "mp", "uknn", "iknn", "mf")


def build_algorithms(
    names: Sequence[str],
    cobar_config: CobarConfig | None = None,
    knn_config: KnnConfig | None = None,
    mf_config: MfConfig | None = None,
    clamp: bool = True,
) -> dict[str, Callable[[], object]]:
    """Factories for the registered predictors, in the requested order.

    Raises ValueError for an empty name list, a repeated name or an
    unregistered one.
    """
    if not names:
        raise ValueError("no algorithm selected")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ValueError(f"algorithm(s) {repeated} named more than once")
    cobar_cfg = cobar_config or CobarConfig()
    knn_cfg = knn_config or KnnConfig()
    mf_cfg = mf_config or MfConfig()
    registry: dict[str, Callable[[], object]] = {
        "cobar": lambda: CobarModel(cobar_cfg, clamp=clamp),
        "mp": lambda: MostPopular(clamp=clamp),
        "uknn": lambda: UserKnn(knn_cfg, clamp=clamp),
        "iknn": lambda: ItemKnn(knn_cfg, clamp=clamp),
        "mf": lambda: MatrixFactorization(mf_cfg, clamp=clamp),
    }
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise ValueError(f"unknown algorithm(s) {unknown}; registered: {sorted(registry)}")
    return {name: registry[name] for name in names}
