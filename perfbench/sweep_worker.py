"""One cold paper-grid sweep (run.py starts it for the traced run and
for --pin).

Runs tools/vcoma_sweep/specs/paper_grid.json through vcoma_sweep's own
stage functions -- expand, submit (direct backend), collect, render --
from a cold result cache, timing each stage. The seed permutes the
order of the sweeps and of each sweep's workload and scheme lists: the
same configs run, in another order.

It runs in a process of its own so that its resource usage covers
exactly the vcoma_client processes doing the work. Writes the sweep's
JSONL records to --sheets and a JSON result to --result.
"""

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "tools"))

from vcoma_sweep import collect as C  # noqa: E402
from vcoma_sweep import render as R  # noqa: E402
from vcoma_sweep import submit as B  # noqa: E402
from vcoma_sweep.spec import Spec  # noqa: E402

SPEC = os.path.join(REPO, "tools", "vcoma_sweep", "specs",
                    "paper_grid.json")


def permuted_spec_obj(seed):
    with open(SPEC, "r", encoding="utf-8") as f:
        obj = json.load(f)
    rng = random.Random(seed)
    rng.shuffle(obj["sweeps"])
    for sweep in obj["sweeps"]:
        rng.shuffle(sweep["workloads"])
        rng.shuffle(sweep["schemes"])
    return obj


def child_env(cache_dir):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("VCOMA_")}
    env["VCOMA_CACHE_DIR"] = cache_dir
    return env


def one_sweep(spec_obj, client, out_dir, cache_dir):
    """One cold sweep; returns (stage seconds, configs, jsonl path)."""
    jsonl = os.path.join(out_dir, "results.jsonl")
    options = B.Options(backend="direct", client=client,
                        env=child_env(cache_dir))
    t0 = time.perf_counter()
    spec = Spec(spec_obj, "paper_grid")
    configs = spec.expand()
    t1 = time.perf_counter()
    result = B.submit(configs, jsonl, options, strict=False)
    t2 = time.perf_counter()
    rows = C.collect_jsonl(configs, jsonl, submit_result=result)
    C.write_results(rows, os.path.join(out_dir, "results.json"),
                    spec.name)
    t3 = time.perf_counter()
    R.render_figures(spec, rows, out_dir)
    t4 = time.perf_counter()
    stages = {"expand": t1 - t0, "submit": t2 - t1, "collect": t3 - t2,
              "render": t4 - t3, "total": t4 - t0}
    return stages, configs, jsonl


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--client", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--sheets", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--keep-cache", action="store_true",
                    help="leave the last sweep's result cache in "
                         "<work>/cache-0 (the traced run reloads it)")
    args = ap.parse_args()

    cache_dir = os.path.join(args.work, "cache-0")
    out_dir = os.path.join(args.work, "sweep")
    os.makedirs(cache_dir)
    os.makedirs(out_dir)
    stages, configs, jsonl = one_sweep(permuted_spec_obj(args.seed),
                                       args.client, out_dir, cache_dir)
    shutil.copyfile(jsonl, args.sheets)
    shutil.rmtree(out_dir)
    if not args.keep_cache:
        shutil.rmtree(cache_dir)

    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    with open(args.result, "w", encoding="utf-8") as f:
        json.dump({"stages": stages, "keys": [c.key() for c in configs],
                   "maxrss_kb": rss}, f)


if __name__ == "__main__":
    main()
