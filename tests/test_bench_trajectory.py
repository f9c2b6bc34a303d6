"""`BENCH_perfbench.json`, the benchmark trajectory: one entry per
performance change, each with the parent's and the change's medians and
quartiles of the five end-to-end metrics that `BENCHMARK.json` declares."""

import json
import re

from conftest import REPO_ROOT

TRAJECTORY = REPO_ROOT / "BENCH_perfbench.json"
SHA = re.compile(r"[0-9a-f]{40}")


def _declared():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return {w["name"] for w in spec["workloads"]}, [m["name"] for m in spec["end_to_end"]]


def _entries():
    entries = json.loads(TRAJECTORY.read_text())
    assert isinstance(entries, list) and entries
    return entries


def test_trajectory_parses_and_names_its_change():
    for entry in _entries():
        assert isinstance(entry["title"], str) and entry["title"]
        assert SHA.fullmatch(entry["parent_sha"])
        # null only for the entry committed together with the change it measures
        assert entry["sha"] is None or SHA.fullmatch(entry["sha"])
        assert isinstance(entry["backfilled"], bool)
        assert isinstance(entry["backend"], str) and entry["backend"]
        assert isinstance(entry["nproc"], int) and entry["nproc"] >= 1
    assert all(entry["sha"] is not None for entry in _entries()[:-1])


def test_every_workload_has_the_five_metrics():
    workloads, metrics = _declared()
    for entry in _entries():
        assert entry["workloads"] and set(entry["workloads"]) <= workloads
        for result in entry["workloads"].values():
            _check_result(entry, result, metrics)


def _check_result(entry, result, metrics):
    assert isinstance(result["pairs"], int) and result["pairs"] >= 1
    seeds = result["seeds"]
    assert seeds is None or (len(seeds) == result["pairs"] and all(isinstance(s, int) for s in seeds))
    if not entry["backfilled"]:
        assert seeds is not None
    assert set(result["metrics"]) == set(metrics)
    for record in result["metrics"].values():
        # a backfilled record may carry only the relative change its log gave
        assert {"parent", "change"} <= set(record) <= {"parent", "change", "delta_pct"}
        for side in ("parent", "change"):
            summary = record[side]
            assert set(summary) == {"median", "q1", "q3"}
            values = [summary[k] for k in ("q1", "median", "q3")]
            assert all(v is None or isinstance(v, (int, float)) for v in values)
            if None not in values:
                assert values == sorted(values)
            # a measured entry has every figure; a backfilled one has what
            # its change log recorded
            if not entry["backfilled"]:
                assert None not in values
