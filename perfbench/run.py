"""End-to-end and per-layer benchmark of cobar.

Run from the root of a cobar checkout:

    python3 perfbench/run.py --workload cv-ft-all --seed 1 --seconds 12 --trace 0

It builds the package in place, writes the workload's seeded synthetic
rating file to a temporary directory, times set-up (`import cobar` plus
parsing that file) in three fresh processes, and runs the workload in a
fresh worker process (perfbench/worker.py).  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`,
where the metrics are the end-to-end ones of BENCHMARK.json with
--trace 0 and its per-layer ones with --trace 1.  End-to-end times are
corrected for the speed of the host (perfbench/hostspeed.py).  A full
record with the provenance stamp, every unit's raw timings, the host
probes and the spans is written under .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from datagen import SHAPES, write_rating_file
from worker import WORKLOADS

HERE = Path(__file__).resolve().parent

SETUP_PROBES = 2           # set-up only processes; the worker gives the third sample
DEADLINE_S = 170           # a run must end within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_worker(argv: list[str], env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("perfbench: out of time before the worker started")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: worker did not finish in time") from None
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this seed's outputs in perfbench/reference.json instead of checking them")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "cobar" / "__init__.py").is_file() or not (root / "setup.py").is_file():
        print(f"perfbench: {root} is not a cobar checkout (no setup.py or src/cobar)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    work = root / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)

    # compiled kernels, if the checkout has any, are built in place
    build = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace", "--build-temp", str(work / "build")],
        cwd=root, stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()),
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])),
               PYTHONHASHSEED="0", **{name: "1" for name in THREAD_ENV})
    shape_name = WORKLOADS[args.workload][0]
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        data = Path(tmp) / f"{shape_name}-seed{args.seed}.tsv"
        write_rating_file(data, SHAPES[shape_name], args.seed)
        common = ["--workload", args.workload, "--data", str(data), "--seed", str(args.seed)]
        probes = [run_worker([*common, "--seconds", "0", "--setup-only"], env, deadline)
                  for _ in range(SETUP_PROBES)]
        run = run_worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                          *(["--no-reference"] if args.write_reference else [])], env, deadline)

    if not run["cobar_file"].startswith(str(root / "src")):
        print(f"perfbench: measured {run['cobar_file']}, not this checkout", file=sys.stderr)
        return 1
    samples = [run, *probes]
    values = dict(run["metrics"])
    values["setup_s"] = statistics.median(s["setup_s"] for s in samples)
    if run["peak_rss_mb"] is not None:
        values["peak_rss_mb"] = run["peak_rss_mb"]
    layers = dict(run["layers"])
    layers["data.parse.s"] = statistics.median(s["parse_s"] for s in samples)
    layers["data.parse.ratings"] = run["data"]["ratings"]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else values
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing and run["failed"] == 0:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    # a run whose operations failed still reports them, with what it measured
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in source}
    result = {"correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"],
              "metrics": metrics}

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "backend": run["backend"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {name: env[name] for name in THREAD_ENV},
        "versions": run["versions"],
        "shape": shape_name,
        "data": run["data"],
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    record = work / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"stamp": stamp, "result": result, "all_metrics": {**values, **layers},
                                  "setup_samples": [s["setup_s"] for s in samples],
                                  "setup_wall_samples": [s["setup_wall_s"] for s in samples],
                                  "trace_overhead_s": run.get("trace_overhead_s"), "probes": run.get("probes"),
                                  "units": run["units"],
                                  "observed": run["observed"], "traces": run["traces"]}, indent=1))

    if args.write_reference and result["correct"]:
        # keyed by data shape: the two cv workloads share data and folds
        path = HERE / "reference.json"
        reference = json.loads(path.read_text()) if path.exists() else {}
        entry = reference.setdefault(shape_name, {}).setdefault(str(args.seed), {})
        for key, value in run["observed"].items():
            if isinstance(value, dict):
                entry.setdefault(key, {}).update(value)
            else:
                entry[key] = value
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")

    print("stamp " + json.dumps(stamp))
    print(f"record {record}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
