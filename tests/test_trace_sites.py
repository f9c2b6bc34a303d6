"""The call sites and names the benchmark (`perfbench/`) reads in cobar.

Its tracer records each per-layer span by replacing a module attribute at
the place where the caller looks the function up, and counts fallbacks by
wrapping `predict_detailed` on a `CobarModel` instance.  A refactor that
renames one of these or binds it early raises no error; the layer's metric
just reads 0.  The first test wraps the same attributes with counters and
checks that one fit of `CobarModel`, `UserKnn` and `MatrixFactorization`
reaches all of them, with the arguments the tracer's counters read, and
that `predict_detailed` returns the `Prediction` whose fallback the tracer
reads.  `predict` does not pass through `predict_detailed`, so the
benchmark's fallback counters see only the calls made to it.  The second
pins the tree names the benchmark reads to pick its catalogue users.
"""

import numpy as np

from cobar import (CobarModel, Fallback, MatrixFactorization, MfConfig, Prediction, UserKnn, agglomerate, baselines,
                   clustering, core, kernels)
from conftest import random_grid_dataset
from oracles import ancestor_chain_reference

SITES = [
    (core, "compute_user_stats"),
    (baselines, "compute_user_stats"),
    (core, "agglomerate"),
    (core, "build_item_stats"),
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
    user, item = demo_dataset.user_index("1"), demo_dataset.item_index("100")
    value = model.predict(user, item)

    assert set(calls) == {f"{module.__name__}.{attr}" for module, attr in SITES}
    # the tracer's fallback counter reads `.fallback.value` of what the
    # instance's `predict_detailed` returns
    prediction = model.predict_detailed(user, item)
    assert type(prediction) is Prediction and type(prediction.fallback) is Fallback
    assert (prediction.fallback.value, prediction.value) == ("none", value)
    (args, stats), = calls["cobar.core.build_item_stats"]
    assert args[0] is model.dendrogram and stats is model.stats
    # 12 ratings of 4 items, each rated by at least one of the 5 users
    assert stats.n_entries == 2 * demo_dataset.n_ratings - demo_dataset.n_items
    assert [len(args[3]) for args, _ in calls["cobar.kernels.mf_sgd_epoch"]] == [demo_dataset.n_ratings] * 2


def test_each_leafs_path_to_the_root(demo_dataset):
    # `catalogue_users` in perfbench/worker.py picks the cap workload's
    # users by the length of `ancestor_chain(leaf)` over `range(n_leaves)`,
    # ordered by `leaf_users`; its reference digests depend on that choice
    rng = np.random.default_rng(63)
    for ds in [demo_dataset, *(random_grid_dataset(rng, max_users=40) for _ in range(5))]:
        tree = agglomerate(ds)
        assert tree.n_leaves == len(tree.leaf_users) == len(np.unique(tree.leaf_users))
        for leaf in range(tree.n_leaves):
            chain = tree.ancestor_chain(leaf)
            assert chain.dtype == np.int64
            assert chain.tolist() == ancestor_chain_reference(tree, leaf).tolist()
            assert chain[0] == leaf and chain[-1] == tree.n_nodes - 1
