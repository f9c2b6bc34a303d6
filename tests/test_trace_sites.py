"""The call sites where the benchmark (`perfbench/`) wraps cobar's functions.

Its tracer records each per-layer span by replacing a module attribute at
the place where the caller looks the function up, and by wrapping
`predict_detailed` on a `CobarModel` instance.  A refactor that renames one
of these or binds it early raises no error; the layer's metric just reads
0.  This test wraps the same attributes with counters and checks that one
fit of `CobarModel`, `UserKnn` and `MatrixFactorization` plus one
prediction reach all of them, with the arguments the tracer's counters read.
"""

from cobar import CobarModel, MatrixFactorization, MfConfig, UserKnn, baselines, clustering, core, kernels

SITES = [
    (core, "compute_user_stats"),
    (baselines, "compute_user_stats"),
    (core, "agglomerate"),
    (core, "build_item_stats"),
    (core, "select_optimal_cluster"),
    (clustering, "cosine_distance_matrix"),
    (kernels, "ward_linkage"),
    (kernels, "mf_sgd_epoch"),
]


def test_every_traced_call_site_is_used(monkeypatch, demo_dataset):
    calls: dict[str, list] = {}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.setdefault(name, []).append((args, result))
            return result
        return wrapper

    for module, attr in SITES:
        monkeypatch.setattr(module, attr, counting(f"{module.__name__}.{attr}", getattr(module, attr)))
    model = CobarModel().fit(demo_dataset)
    UserKnn().fit(demo_dataset)
    MatrixFactorization(MfConfig(epochs=2)).fit(demo_dataset)
    model.predict_detailed = counting("predict_detailed", model.predict_detailed)
    user = demo_dataset.user_index("1")
    model.predict(user, demo_dataset.item_index("100"))

    assert set(calls) == {f"{module.__name__}.{attr}" for module, attr in SITES} | {"predict_detailed"}
    (args, stats), = calls["cobar.core.build_item_stats"]
    assert args[0] is model.dendrogram
    assert all(len(stats.items_at(node)) > 0 for node in range(args[0].n_nodes))
    (args, _), = calls["cobar.core.select_optimal_cluster"]
    assert len(args[0]) == len(model.dendrogram.ancestor_chain(model._leaf_of[user]))
    assert [len(args[3]) for args, _ in calls["cobar.kernels.mf_sgd_epoch"]] == [demo_dataset.n_ratings] * 2
