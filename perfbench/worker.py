"""One measured run of one workload, in a fresh process started by run.py.

    python3 perfbench/worker.py --workload NAME --data FILE --seed N \
        --seconds S --trace 0|1 [--setup-only] [--no-reference]

The first thing timed is `import cobar` plus parsing the rating file (the
set-up sample).  With --setup-only the worker stops there.  Otherwise it
repeats the workload's unit of work (see WORKLOADS) and prints one JSON
object, for run.py, as the last line of its standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent

# name -> data shape and the algorithms of its ten-fold comparison; an empty
# algorithm tuple marks the catalogue workload
WORKLOADS = {
    "cv-ft-all": ("ft", ("cobar", "mp", "uknn", "iknn", "mf")),
    "cv-ft-neighbors": ("ft", ("cobar", "mp", "uknn", "iknn")),
    "cap-catalogue": ("cap", ()),
}

FOLDS = 10
CV_SEED = 42               # `cobar evaluate` default for the split and MF
WILCOXON_LEVEL = 0.99
# `cobar evaluate` defaults to 30 epochs, which makes one pure-Python
# evaluation take about 80 s on a 2-core x86 VM; with 5 it takes about 30 s
# and the SGD epoch is still its largest layer
MF_EPOCHS = 5
# a compiled SGD epoch may order float operations differently
MF_RMSE_TOLERANCE = 1e-6
CATALOGUE_USERS = 24       # users whose full catalogue one unit scores
USERS_PER_MARK = 2         # catalogue users between two probes of the host
SETUP_MARKS = 8            # probes of the host after set-up
UNTRACED_LIMIT_S = 60      # a traced run adds no untraced unit after a longer traced one

LAYER = {"cobar": "core", "mp": "baselines.mp", "uknn": "baselines.uknn",
         "iknn": "baselines.iknn", "mf": "baselines.mf"}


def digest(values) -> str:
    import numpy as np

    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()[:16]


def valid(values, lo: float, hi: float) -> bool:
    """Every prediction finite and on the rating scale."""
    return len(values) > 0 and all(math.isfinite(v) and lo <= v <= hi for v in values)


class Span:
    """A tracer span when tracing, nothing otherwise."""

    def __init__(self, tracer, name, **attrs):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        self.span = self.tracer.begin(self.name, **self.attrs) if self.tracer else None

    def __exit__(self, *exc):
        if self.span is not None:
            self.tracer.end(self.span)


def count_fallbacks(model, tracer) -> None:
    """Count the fallback of every prediction `model.predict` makes."""
    original = getattr(model, "predict_detailed", None)
    if original is None:
        tracer.missing.add("CobarModel.predict_detailed")
        return

    def predict_detailed(user, item):
        prediction = original(user, item)
        tracer.counts[f"core.predict.fallback.{prediction.fallback.value}"] += 1
        return prediction

    model.predict_detailed = predict_detailed


class Recorded:
    """Predictor handed to the harness: keeps every prediction it returns and
    times `fit` and the summed predict calls of one (fold, algorithm).  With
    a clock it probes the host before each fit."""

    def __init__(self, algo: str, fold: int, model, tracer, clock):
        self._model = model
        self.algo, self.fold, self.tracer, self.clock = algo, fold, tracer, clock
        self.values: list[float] = []
        self.fit_start = self.fit_end = 0.0
        self.busy = 0.0
        self.first = self.last = self.parent = None
        if tracer is not None and algo == "cobar":
            count_fallbacks(model, tracer)

    def fit(self, train):
        if self.clock is not None:
            self.clock.mark()
        with Span(self.tracer, f"{LAYER[self.algo]}.fit", fold=self.fold, algo=self.algo):
            self.fit_start = time.perf_counter()
            self._model.fit(train)
            self.fit_end = time.perf_counter()
        return self

    def predict(self, user, item):
        start = time.perf_counter()
        value = self._model.predict(user, item)
        end = time.perf_counter()
        if self.first is None:
            self.first = start
            self.parent = self.tracer.current() if self.tracer else None
        self.last = end
        self.busy += end - start
        self.values.append(value)
        return value

    def emit(self, tracer) -> None:
        if self.first is None:
            return
        name = f"{LAYER[self.algo]}.predict"
        tracer.aggregate(name, self.parent, self.first, self.last, self.busy, fold=self.fold, algo=self.algo)
        tracer.counts[f"{name}.queries"] += len(self.values)


def install_hooks(tracer) -> None:
    """Spans around each layer's public functions, where the caller looks them up."""
    from cobar import baselines, clustering, core, evaluation, kernels

    tracer.patch(evaluation, "kfold_split", "data.split")
    tracer.patch(evaluation, "fold_train_test", "data.split")
    tracer.patch(evaluation, "wilcoxon_signed_rank", "evaluation.wilcoxon")
    tracer.patch(core, "compute_user_stats", "data.user_stats")
    tracer.patch(baselines, "compute_user_stats", "data.user_stats")
    tracer.patch(core, "agglomerate", "clustering.agglomerate")
    tracer.patch(clustering, "cosine_distance_matrix", "clustering.cosine")
    tracer.patch(kernels, "ward_linkage", "kernels.ward",
                 count=lambda args, result: {"kernels.ward.merges": len(result[0])})
    tracer.patch(core, "build_item_stats", "core.item_stats",
                 count=lambda args, result: {"core.item_stats.entries":
                                             sum(len(result.items_at(n)) for n in range(args[0].n_nodes))})
    tracer.patch(kernels, "mf_sgd_epoch", "kernels.mf_sgd_epoch",
                 count=lambda args, result: {"kernels.mf_sgd_epoch.samples": len(args[3])})
    # per query: counted, no span
    tracer.patch(core, "select_optimal_cluster",
                 count=lambda args, result: {"core.predict.chain_nodes": len(args[0])})


def cv_unit(dataset, algos, tracer, clock, expected):
    """The full `cobar evaluate` protocol once: every fold and algorithm,
    the Wilcoxon tests and the report.  One operation is one (fold,
    algorithm) fit-and-predict."""
    from cobar.baselines import MfConfig
    from cobar.evaluation import build_algorithms, run_cross_validation

    recorded: dict[str, list[Recorded]] = {algo: [] for algo in algos}

    def recording(algo, make):
        def build():
            model = Recorded(algo, len(recorded[algo]), make(), tracer, clock)
            recorded[algo].append(model)
            return model
        return build

    if clock is not None:
        clock.mark()
    with Span(tracer, "evaluation.cv"):
        start = time.perf_counter()
        factories = build_algorithms(algos, mf_config=MfConfig(epochs=MF_EPOCHS, seed=CV_SEED))
        report = run_cross_validation(
            dataset,
            {algo: recording(algo, make) for algo, make in factories.items()},
            folds=FOLDS,
            seed=CV_SEED,
            wilcoxon_level=WILCOXON_LEVEL,
        )
        report.to_json()
        report.format_table()
        end = time.perf_counter()
    if clock is not None:
        clock.mark()

    observed = {
        "rmse": {algo: [repr(x) for x in report.fold_rmse[algo]] for algo in algos},
        "digest": {algo: [digest(m.values) for m in recorded[algo]] for algo in algos},
    }
    ok = []
    for algo in algos:
        for fold, model in enumerate(recorded[algo]):
            good = valid(model.values, dataset.rating_min, dataset.rating_max)
            if expected is not None and algo in expected["rmse"]:
                want_rmse = float(expected["rmse"][algo][fold])
                got_rmse = report.fold_rmse[algo][fold]
                if algo == "mf":
                    good &= abs(got_rmse - want_rmse) <= MF_RMSE_TOLERANCE
                else:
                    good &= got_rmse == want_rmse
                    good &= observed["digest"][algo][fold] == expected["digest"][algo][fold]
            ok.append(good)
    if tracer is not None:
        for models in recorded.values():
            for model in models:
                model.emit(tracer)
    cobar_runs = recorded.get("cobar", [])
    return timings(clock, start, end, [(m.fit_start, m.fit_end) for m in cobar_runs],
                   [(len(m.values), m.busy, m.first, m.last) for m in cobar_runs if m.values],
                   ok=ok, observed=observed)


def catalogue_unit(dataset, users, tracer, clock, expected):
    """Fit cobar on every rating, then score every item for each sampled
    user.  One operation is one user's catalogue."""
    from cobar.core import CobarModel

    values = []
    spans = []                 # (start, end) of each user's catalogue

    def mark():
        if clock is not None:
            clock.mark()

    mark()
    with Span(tracer, "catalogue"):
        start = time.perf_counter()
        model = CobarModel()
        if tracer is not None:
            count_fallbacks(model, tracer)
        with Span(tracer, "core.fit"):
            fit_start = time.perf_counter()
            model.fit(dataset)
            fit_end = time.perf_counter()
        mark()
        parent = tracer.current() if tracer else None
        for k, user in enumerate(users):
            user_start = time.perf_counter()
            scores = [model.predict(user, item) for item in range(dataset.n_items)]
            spans.append((user_start, time.perf_counter()))
            values.append(scores)
            if (k + 1) % USERS_PER_MARK == 0:
                mark()
        end = time.perf_counter()
    mark()

    observed = {"users": [int(u) for u in users], "digest": [digest(scores) for scores in values]}
    ok = []
    for k, scores in enumerate(values):
        good = valid(scores, dataset.rating_min, dataset.rating_max)
        if expected is not None:
            good &= observed["digest"][k] == expected["digest"][k]
        ok.append(good)
    if tracer is not None:
        tracer.aggregate("core.predict", parent, spans[0][0], spans[-1][1], sum(b - a for a, b in spans))
        tracer.counts["core.predict.queries"] += len(users) * dataset.n_items
    predict = (len(users) * dataset.n_items, sum(b - a for a, b in spans), spans[0][0], spans[-1][1])
    return timings(clock, start, end, [(fit_start, fit_end)], [predict], ok=ok, observed=observed)


def timings(clock, start, end, fits, predicts, **rest) -> dict:
    """One unit's samples.  `fits` holds (start, end) of each cobar fit and
    `predicts` (queries, summed call time, first call, last call) of each
    run of cobar predictions.  `wall_s`, `fit_s` and `predict_s` are as
    measured, with probes excluded; with a clock, `corrected` holds them
    divided by the host's slowness while each was measured."""
    wall_s = end - start - (clock.probe_time(start, end) if clock is not None else 0.0)
    unit = {
        "wall_s": wall_s,
        "fit_s": [b - a for a, b in fits],
        "queries": sum(p[0] for p in predicts),
        "predict_s": sum(p[1] for p in predicts),
        **rest,
    }
    if clock is not None:
        unit["corrected"] = {
            "wall_s": wall_s / clock.slowness(start, end),
            "fit_s": [(b - a) / clock.slowness(a, b) for a, b in fits],
            "predict_s": sum(busy / clock.slowness(first, last) for _, busy, first, last in predicts),
        }
    return unit


def layer_metrics(tracer, wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced unit."""
    from tracing import span_totals

    total, own = span_totals(tracer.spans)
    counts = tracer.counts
    queries = counts["core.predict.queries"]
    values = {name: total.get(name[:-2], 0.0) for name in (
        "data.split.s", "data.user_stats.s", "clustering.cosine.s", "kernels.ward.s",
        "core.fit.s", "core.item_stats.s", "core.predict.s",
        "baselines.uknn.predict.s", "baselines.iknn.predict.s",
        "baselines.mf.fit.s", "kernels.mf_sgd_epoch.s",
        "baselines.mp.fit.s", "baselines.mp.predict.s", "evaluation.wilcoxon.s",
    )}
    for name in (
        "kernels.ward.merges", "core.item_stats.entries", "core.predict.queries",
        "core.predict.chain_nodes", "core.predict.fallback.none",
        "core.predict.fallback.single_rating", "core.predict.fallback.cold_item",
        "core.predict.fallback.cold_user", "baselines.uknn.predict.queries",
        "baselines.iknn.predict.queries", "kernels.mf_sgd_epoch.samples",
    ):
        values[name] = counts[name]
    values["core.predict.interval_ratio"] = counts["core.predict.fallback.none"] / queries if queries else 0.0
    values["evaluation.cv.self_s"] = own.get("evaluation.cv", 0.0)
    values["trace.wall_s"] = wall_s
    return values


def catalogue_users(dataset):
    """CATALOGUE_USERS users spread evenly over the leaf depths of the user
    hierarchy.  A query costs more the deeper its user's leaf, so a plain
    random sample would change the query mix, and with it score_qps, from
    seed to seed."""
    import numpy as np

    from cobar.clustering import agglomerate

    tree = agglomerate(dataset)
    depth = np.array([len(tree.ancestor_chain(leaf)) for leaf in range(tree.n_leaves)])
    order = np.lexsort((tree.leaf_users, depth))
    picks = ((np.arange(CATALOGUE_USERS) + 0.5) * tree.n_leaves / CATALOGUE_USERS).astype(int)
    return tree.leaf_users[order[picks]]


def agglomerate_peak_mb(dataset) -> float:
    """Traced peak memory of clustering every user of the dataset, measured
    in a call of its own: tracemalloc slows the Ward loop several times."""
    import tracemalloc

    from cobar.clustering import agglomerate

    tracemalloc.start()
    try:
        agglomerate(dataset)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args, dataset, clock) -> dict:
    """Repeat the workload's unit for --seconds and collect its samples."""
    from tracing import Tracer, span_totals

    shape, algos = WORKLOADS[args.workload]
    expected = None
    if not args.no_reference:
        path = HERE / "reference.json"
        reference = json.loads(path.read_text()) if path.exists() else {}
        expected = reference.get(shape, {}).get(str(args.seed))
    ops_per_unit = FOLDS * len(algos) if algos else CATALOGUE_USERS

    # Whole units are repeated until --seconds have passed, never starting
    # one the previous unit says would end later; there is always at least
    # one.  A traced run repeats (traced, untraced) pairs, so that the
    # difference between the two is the tracing overhead; it skips the
    # untraced unit after a traced one longer than UNTRACED_LIMIT_S, to end
    # in time on a slow host.  Traced units are not probed: their spans
    # would count the probes.
    plain, traced, traces = [], [], []
    attempted = failed = 0
    peak_rss_mb = None
    users = None
    start = time.perf_counter()
    stop = False
    while not stop:
        step_start = time.perf_counter()
        for tracing in ((True, False) if args.trace else (False,)):
            if args.trace and not tracing and traced and traced[-1]["wall_s"] > UNTRACED_LIMIT_S:
                break
            tracer = Tracer() if tracing else None
            attempted += ops_per_unit
            try:
                if tracer is not None:
                    install_hooks(tracer)
                try:
                    if not algos and users is None:
                        users = catalogue_users(dataset)
                        # choosing the users is not part of the measured time
                        start = step_start = time.perf_counter()
                    if algos:
                        result = cv_unit(dataset, algos, tracer, None if tracing else clock, expected)
                    else:
                        result = catalogue_unit(dataset, users, tracer, None if tracing else clock, expected)
                finally:
                    if tracer is not None:
                        tracer.restore()
            except Exception:
                traceback.print_exc()
                failed += ops_per_unit
                stop = True
                break
            bad = result["ok"].count(False) + ops_per_unit - len(result["ok"])
            first = (plain or traced or [result])[0]
            if result["observed"] != first["observed"]:
                print("perfbench: outputs differ between units of one run", file=sys.stderr)
                bad = ops_per_unit
            failed += bad
            if tracer is None:
                plain.append(result)
                if len(plain) == 1:
                    # later units reuse memory the allocator kept, so the
                    # peak after one unit does not depend on how many ran
                    peak_rss_mb = max_rss_mb()
            else:
                result["layers"] = layer_metrics(tracer, result["wall_s"])
                traced.append(result)
                traces.append({"spans": tracer.spans, "counts": dict(tracer.counts),
                               "self_s": span_totals(tracer.spans)[1], "missing": sorted(tracer.missing)})
        now = time.perf_counter()
        stop = stop or (now - start) + (now - step_start) > args.seconds

    metrics = {}
    if plain:
        # corrected for the host's speed (see hostspeed.py)
        corrected = [r["corrected"] for r in plain]
        metrics = {
            "eval_s": statistics.median(c["wall_s"] for c in corrected),
            "fit_s": statistics.median(s for c in corrected for s in c["fit_s"]),
            "score_qps": sum(r["queries"] for r in plain) / sum(c["predict_s"] for c in corrected),
        }
    layers = {}
    if traced:
        layers = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        layers["clustering.agglomerate.peak_mb"] = agglomerate_peak_mb(dataset)
    units = plain + traced
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "layers": layers,
        # traced wall time less untraced, probes excluded; can read
        # negative when the host's speed changes between the two
        "trace_overhead_s": (layers["trace.wall_s"] - statistics.median(r["wall_s"] for r in plain)
                             if traced and plain else None),
        "units": [{k: r[k] for k in ("wall_s", "fit_s", "queries", "predict_s", "corrected") if k in r}
                  for r in units],
        "observed": units[0]["observed"] if units else None,
        "traces": traces,
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--data", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--no-reference", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import cobar
    parse_start = time.perf_counter()
    dataset = cobar.parse_ratings(args.data, name=Path(args.data).name)
    end = time.perf_counter()

    import numpy as np
    import scipy

    from hostspeed import HostSpeed

    clock = HostSpeed()
    for _ in range(SETUP_MARKS):
        clock.mark()
    out = {
        "setup_s": (end - start) / clock.slowness(),
        "parse_s": end - parse_start,
        "setup_wall_s": end - start,
        "data": {"users": dataset.n_users, "items": dataset.n_items, "ratings": dataset.n_ratings},
        "backend": cobar.kernels.BACKEND,
        "cobar_file": cobar.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__},
    }
    if not args.setup_only:
        out.update(run(args, dataset, clock))
        out["probes"] = clock.probes
    out.setdefault("peak_rss_mb", max_rss_mb())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
