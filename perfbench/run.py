#!/usr/bin/env python3
"""The simulator's benchmark: one command, two workloads.

  python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 \\
      --trace 0

Run from the repository root. The first run builds the simulator
library, vcoma_client and perfbench_driver into .bench_build/; scratch
files go to .bench_work/. Every stats sheet a run produces is checked
against the digest pinned in perfbench/digests.json and against the
sheet invariants, and the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of an untraced run; --trace 1
reports the per-layer split of a traced run instead. --pin rewrites
digests.json from the current code; --table prints the refs/s table
of every kernel x {L0, L3, V-COMA, VICTIMA} at 32 nodes, scale 1.
See README.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build")
WORK_ROOT = os.path.join(REPO, ".bench_work")
DIGESTS = os.path.join(HERE, "digests.json")
DRIVER = os.path.join(BUILD, "perfbench_driver")
CLIENT = os.path.join(BUILD, "vcoma_client")

#: Sources the benchmark builds and drives; without them it refuses.
NEEDED = ("src/CMakeLists.txt", "tools/vcoma_client.cc",
          "tools/vcoma_sweep/spec.py",
          "tools/vcoma_sweep/specs/paper_grid.json")

JOBS = max(1, min(4, os.cpu_count() or 1))
#: Set-ups per run; setup_s is their median. A paper-grid set-up takes
#: about 0.2 s, a trace-replay one about 2 s.
SETUP_REPS = 9
RECORD_REPS = 5
#: The host-speed probe's (perfbench_driver's probeS()) typical time on
#: the 4-vCPU Xeon VM the bounds were set on. run_s is given in seconds
#: of a host on which the probe takes this long.
PROBE_REF_S = 0.025

WORKLOADS = ("paper-grid", "trace-replay")
REPLAY_KERNELS = ["FFT", "BARNES", "GRAPH"]
REPLAY_SCHEMES = ["L0", "L3", "VCOMA"]
TABLE_KERNELS = ["RADIX", "FFT", "FMM", "OCEAN", "RAYTRACE", "BARNES",
                 "KVLOOKUP", "GRAPH", "STREAMJOIN"]
TABLE_SCHEMES = ["L0", "L3", "VCOMA", "VICTIMA"]

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("refs_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("ok_frac", "ratio"))

SHEET_COUNTS = (
    ("coma.remote_reads", ("protocol", "remoteReads")),
    ("coma.remote_writes", ("protocol", "remoteWrites")),
    ("coma.upgrades", ("protocol", "upgrades")),
    ("coma.invalidations", ("protocol", "invalidations")),
    ("coma.injections", ("protocol", "injections")),
    ("coma.injection_hops", ("protocol", "injectionHops")),
    ("coma.am_misses", ("caches", "amMisses")),
    ("vm.swap_outs", ("protocol", "swapOuts")),
)

PER_LAYER = (
    ("workloads.build_s", "s"), ("sim.machine_build_s", "s"),
    ("workloads.gen_ns_per_event", "ns"), ("sim.dispatch_ns_per_ref", "ns"),
    ("sim.sync_ns_per_event", "ns"), ("coma.fast.hit_frac", "ratio"),
    ("coma.fast.ns_per_hit", "ns"), ("coma.slow.calls", "count"),
    ("coma.slow.read_ns", "ns"), ("coma.slow.write_ns", "ns"),
) + tuple((name, "count") for name, _ in SHEET_COUNTS) + (
    ("net.messages", "count"), ("tlb.shadow.accesses", "count"),
    ("tlb.shadow.ns_per_access", "ns"),
    ("tlb.configured.ns_per_access", "ns"),
    ("sim.replay.load_s", "s"), ("sim.replay.vs_live", "ratio"),
) + tuple((f"sim.replay.vs_live.{k}.{s}", "ratio")
          for k in REPLAY_KERNELS
          for s in ("L0-TLB", "L3-TLB", "V-COMA")) + (
    ("harness.pool_eff", "ratio"), ("harness.warm_load_us", "us"),
    ("harness.wall_run_s", "s"),
    ("stats.json_us", "us"), ("sweep.expand_s", "s"),
    ("sweep.submit_s", "s"), ("sweep.collect_s", "s"),
    ("sweep.render_s", "s"), ("workloads.gen_s", "s"),
    ("coma.fast_s", "s"), ("coma.slow_s", "s"), ("sim.sync_s", "s"),
    ("sim.dispatch_s", "s"), ("stats.dump_s", "s"),
    ("trace.busy_s", "s"), ("trace.run_s", "s"),
    ("trace.overhead", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def say(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def require_sources():
    missing = [p for p in NEEDED
               if not os.path.exists(os.path.join(REPO, p))]
    if missing:
        raise BenchError("not a simulator checkout (missing "
                         + ", ".join(missing) + ")")
    sys.path.insert(0, os.path.join(REPO, "tools"))


# ---------------------------------------------------------------------------
# Build and child processes
# ---------------------------------------------------------------------------

def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(JOBS),
                    "--target", "vcoma_client", "perfbench_driver"],
                   stdout=sys.stderr, check=True)


def child_env():
    """The caller's environment without any VCOMA_* knob, so no
    exporter, sanitizer or fast-path switch changes what runs. Runner
    batches run one config at a time."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("VCOMA_")}
    env["VCOMA_JOBS"] = "1"
    return env


def run_driver(mode, configs, work, **flags):
    tag = f"{mode}-{len(os.listdir(work))}"
    cfg_path = os.path.join(work, f"{tag}-configs.json")
    result = os.path.join(work, f"{tag}-result.json")
    with open(cfg_path, "w", encoding="utf-8") as f:
        json.dump({"configs": configs}, f)
    cmd = [DRIVER, mode, "--configs", cfg_path, "--result", result,
           "--work", work]
    for name, value in flags.items():
        cmd += ["--" + name.replace("_", "-"), str(value)]
    # Trace paths in the configs are relative to the repository root.
    proc = subprocess.run(cmd, stdout=sys.stderr, env=child_env(),
                          cwd=REPO)
    if proc.returncode != 0:
        raise BenchError(f"perfbench_driver {mode} exited "
                         f"{proc.returncode}")
    with open(result, "r", encoding="utf-8") as f:
        return json.load(f)


def run_sweep_worker(work, seed, sheets, keep_cache=False):
    result = os.path.join(work, "sweep-result.json")
    cmd = [sys.executable, os.path.join(HERE, "sweep_worker.py"),
           "--client", CLIENT, "--work", work, "--seed", str(seed),
           "--sheets", sheets, "--result", result]
    if keep_cache:
        cmd.append("--keep-cache")
    proc = subprocess.run(cmd, stdout=sys.stderr, env=child_env())
    if proc.returncode != 0:
        raise BenchError(f"sweep worker exited {proc.returncode}")
    with open(result, "r", encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Configs
# ---------------------------------------------------------------------------

def expand(workloads, schemes):
    """workloads x schemes at 32 nodes, scale 1, via vcoma_sweep's own
    config type (which mirrors ExperimentConfig::key())."""
    from vcoma_sweep.spec import Spec
    spec = Spec({"name": "perfbench",
                 "defaults": {"nodes": 32, "scale": 1.0, "seed": 1},
                 "sweeps": [{"id": "perfbench", "workloads": workloads,
                             "schemes": schemes}]})
    return spec.expand()


def driver_config(cfg, **extra):
    d = dict(cfg.knobs)
    d.update(workload=cfg.workload, scheme=cfg.scheme, key=cfg.key())
    d.update(extra)
    return d


def paper_grid_configs(seed):
    """The unique configs of the paper grid, in the seed's order."""
    import sweep_worker
    from vcoma_sweep.spec import Spec
    spec = Spec(sweep_worker.permuted_spec_obj(seed), "paper_grid")
    unique = {}
    for cfg in spec.expand():
        unique.setdefault(cfg.key(), cfg)
    return list(unique.values())


def replay_cells(work):
    """The trace-replay workload's configs: (record, replay, live).
    record[k] publishes REPLAY_KERNELS[k]'s packed trace; replay[i]
    replays the stream of live[i] under the same scheme."""
    trace_dir = os.path.relpath(os.path.join(work, "traces"), REPO)
    os.makedirs(os.path.join(REPO, trace_dir), exist_ok=True)
    record, replay = [], []
    for kernel in REPLAY_KERNELS:
        path = f"{trace_dir}/{kernel}.vctrace"
        record += [driver_config(c, trace=path)
                   for c in expand([kernel], ["VCOMA"])]
        replay += expand([f"TRACE:{path}"], REPLAY_SCHEMES)
    return record, replay, expand(REPLAY_KERNELS, REPLAY_SCHEMES)


# ---------------------------------------------------------------------------
# Sheet checks
# ---------------------------------------------------------------------------

def digest(line):
    return hashlib.sha256(line.encode("utf-8")).hexdigest()[:16]


def load_digests():
    try:
        with open(DIGESTS, "r", encoding="utf-8") as f:
            return json.load(f)
    except OSError:
        return {}


def sheet_problem(rec):
    """The first broken sheet invariant, or None."""
    totals = rec["totals"]
    reads = writes = 0
    for i, cpu in enumerate(rec["cpus"]):
        if cpu["refs"] != cpu["reads"] + cpu["writes"]:
            return f"cpu {i}: refs != reads + writes"
        buckets = (cpu["busy"] + cpu["sync"] + cpu["locStall"]
                   + cpu["remStall"] + cpu["xlatStall"])
        if buckets != cpu["finish"]:
            return f"cpu {i}: cycle buckets {buckets} != finish " \
                   f"{cpu['finish']}"
        reads += cpu["reads"]
        writes += cpu["writes"]
    if totals["refs"] != reads + writes:
        return "refs != reads + writes"
    if rec["scheme"] == "V-COMA" and (rec["dlb"]["filteredRefs"]
                                      + rec["tlb"]["accesses"]
                                      != totals["refs"]):
        return "dlbFilteredRefs + DLB accesses != refs"
    return None


class Checker:
    """Checks sheets against the pinned digests; counts failures."""

    def __init__(self, pinning=False):
        self.digests = load_digests()
        self.pinning = pinning
        self.pinned = {}
        self.attempted = 0
        self.failed = 0

    def fail(self, what):
        self.failed += 1
        say(f"FAILED: {what}")

    def check_lines(self, lines, pin_keys):
        """Check sheet lines; pin_keys[i] names line i's pinned digest.
        Returns the parsed records (None for a failed line)."""
        if len(lines) != len(pin_keys):
            raise BenchError(f"{len(lines)} sheet(s) for "
                             f"{len(pin_keys)} config(s)")
        out = []
        for line, key in zip(lines, pin_keys):
            self.attempted += 1
            rec = json.loads(line)
            if "totals" not in rec:
                self.fail(f"{key}: {rec.get('error', 'no sheet')}")
                out.append(None)
                continue
            problem = sheet_problem(rec)
            if problem:
                self.fail(f"{key}: {problem}")
                out.append(None)
                continue
            d = digest(line)
            if self.pinning:
                if self.pinned.setdefault(key, d) != d:
                    self.fail(f"{key}: two different sheets")
            elif self.digests.get(key) != d:
                self.fail(f"{key}: sheet digest {d} != pinned "
                          f"{self.digests.get(key)}")
                out.append(None)
                continue
            out.append(rec)
        return out


def read_lines(path):
    with open(path, "r", encoding="utf-8") as f:
        return [ln.rstrip("\n") for ln in f if ln.strip()]


# ---------------------------------------------------------------------------
# Untraced runs: the end-to-end metrics
# ---------------------------------------------------------------------------

def batch_refs(records, keys):
    """Simulated references of one batch (each unique config once)."""
    seen, refs = set(), 0
    for rec, key in zip(records, keys):
        if rec is not None and key not in seen:
            seen.add(key)
            refs += rec["totals"]["refs"]
    return refs


def scaled(times, probe):
    """@times at the reference host speed: each scaled by PROBE_REF_S
    over the mean of the probe readings on either side of it."""
    return [t * 2 * PROBE_REF_S / (probe[i] + probe[i + 1])
            for i, t in enumerate(times)]


def batch_seconds(res):
    """One batch's scaled time: the mean over the batches run. Once
    scaled, a config's times scatter about evenly around their centre,
    and over three to five batches the mean varied less from run to
    run than the per-config median did."""
    runs = [sum(scaled(times, probe))
            for times, probe in zip(res["config_s"], res["probe_s"])]
    return statistics.mean(runs)


def end_to_end(setup, run_s, refs, rss_kb, checker):
    return {"setup_s": statistics.median(setup), "run_s": run_s,
            "refs_per_s": refs / run_s, "peak_rss_mb": rss_kb / 1024.0,
            "ok_frac": 1.0 - checker.failed / max(1, checker.attempted)}


def untraced(workload, seed, seconds, work, checker):
    sheets = os.path.join(work, "sheets.jsonl")
    if workload == "paper-grid":
        cfgs = paper_grid_configs(seed)
        res = run_driver("run", [driver_config(c) for c in cfgs], work,
                         sheets=sheets, seconds=seconds,
                         setup_reps=SETUP_REPS)
        pin = [c.key() for c in cfgs]
        setup = scaled(res["setup_s"], res["setup_probe_s"])
    else:
        record, replay, live = replay_cells(work)
        rec = run_driver("record", record, work,
                         setup_reps=RECORD_REPS, jobs=JOBS)
        if rec["failed"]:
            raise BenchError("trace recording failed")
        rng = random.Random(seed)
        order = list(range(len(replay)))
        rng.shuffle(order)
        cfgs = [replay[i] for i in order]
        pin = [live[i].key() for i in order]
        res = run_driver("run", [driver_config(c) for c in cfgs], work,
                         sheets=sheets, seconds=seconds, setup_reps=0)
        setup = scaled(rec["setup_s"], rec["setup_probe_s"])
    reps = len(res["config_s"])
    recs = checker.check_lines(read_lines(sheets), pin * reps)
    return end_to_end(setup, batch_seconds(res),
                      batch_refs(recs[:len(pin)], pin), res["maxrss_kb"],
                      checker)


# ---------------------------------------------------------------------------
# Traced runs: the per-layer split
# ---------------------------------------------------------------------------

def sum_of(rows, field):
    return sum(r[field] for r in rows)


def ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def refs_table(rows, recs):
    """Markdown refs/s table (host, untraced Machine::run) per kernel x
    scheme, from phase A of a trace-mode driver result."""
    cells, kernels, schemes = {}, [], []
    for row, rec in zip(rows, recs):
        if rec is None or row["error"]:
            continue
        k, s = rec["workload"], rec["scheme"]
        if row["key"].startswith("TRACE"):
            k += " (replay)"
        if k not in kernels:
            kernels.append(k)
        if s not in schemes:
            schemes.append(s)
        refs, secs = cells.get((k, s), (0, 0.0))
        cells[(k, s)] = (refs + rec["totals"]["refs"],
                         secs + row["a_run_s"])
    from vcoma_sweep.spec import SCHEMES
    schemes.sort(key=list(SCHEMES).index)
    kernels.sort()
    lines = ["| kernel | " + " | ".join(schemes) + " |",
             "|---|" + "---:|" * len(schemes)]
    for k in kernels:
        row = [f"{cells[(k, s)][0] / cells[(k, s)][1] / 1e6:.2f}M/s"
               if (k, s) in cells else "-" for s in schemes]
        lines.append(f"| {k} | " + " | ".join(row) + " |")
    return "\n".join(lines)


def layer_metrics(res, traced_rows, sheet_recs, untraced_s, checker):
    """The per-layer metrics of one trace-mode driver result;
    @untraced_s is the untraced run_s of the same batch."""
    m = {name: 0.0 for name, _ in PER_LAYER}
    rows = traced_rows
    for r in rows:
        if r["mismatch"]:
            checker.fail(f"{r['key']}: traced loop differs from "
                         f"Machine::run: {r['mismatch']}")
        if not r["warm_hit"]:
            checker.fail(f"{r['key']}: not reloaded from the warm cache")
    live = [r for r in rows if not r["key"].startswith("TRACE")]
    replayed = [r for r in rows if r["key"].startswith("TRACE")]
    refs = sum_of(rows, "refs")
    fast_s = sum_of(rows, "fast_hit_s") + sum_of(rows, "fast_miss_s")
    slow_s = sum_of(rows, "slow_read_s") + sum_of(rows, "slow_write_s")
    dispatch_s = (sum_of(rows, "loop_s") - sum_of(rows, "gen_s") - fast_s
                  - slow_s - sum_of(rows, "sync_s"))
    slow_calls = sum_of(rows, "slow_reads") + sum_of(rows, "slow_writes")
    m.update({
        "workloads.build_s": sum_of(live, "workload_s"),
        "sim.replay.load_s": sum_of(replayed, "workload_s"),
        "sim.machine_build_s": sum_of(rows, "machine_s"),
        "workloads.gen_ns_per_event": ratio(sum_of(rows, "gen_s"),
                                            sum_of(rows, "gen_events"),
                                            1e9),
        "sim.dispatch_ns_per_ref": ratio(dispatch_s, refs, 1e9),
        "sim.sync_ns_per_event": ratio(sum_of(rows, "sync_s"),
                                       sum_of(rows, "sync_events"), 1e9),
        "coma.fast.hit_frac": ratio(sum_of(rows, "fast_hits"), refs),
        "coma.fast.ns_per_hit": ratio(sum_of(rows, "fast_hit_s"),
                                      sum_of(rows, "fast_hits"), 1e9),
        "coma.slow.calls": slow_calls,
        "coma.slow.read_ns": ratio(sum_of(rows, "slow_read_s"),
                                   sum_of(rows, "slow_reads"), 1e9),
        "coma.slow.write_ns": ratio(sum_of(rows, "slow_write_s"),
                                    sum_of(rows, "slow_writes"), 1e9),
        "harness.warm_load_us": ratio(sum_of(rows, "warm_s"), len(rows),
                                      1e6),
        "workloads.gen_s": sum_of(rows, "gen_s"),
        "coma.fast_s": fast_s, "coma.slow_s": slow_s,
        "sim.sync_s": sum_of(rows, "sync_s"), "sim.dispatch_s": dispatch_s,
        "stats.dump_s": sum_of(rows, "dump_s"),
        "trace.run_s": res["b_wall_s"],
        "tlb.shadow.ns_per_access": ratio(res["tlb"]["shadow_s"],
                                          res["tlb"]["shadow_accesses"],
                                          1e9),
        "tlb.configured.ns_per_access": ratio(
            res["tlb"]["configured_s"], res["tlb"]["configured_accesses"],
            1e9),
    })
    if dispatch_s < 0:
        checker.fail("layer spans exceed the traced loop time")
    parts = ("workloads.build_s", "sim.replay.load_s",
             "sim.machine_build_s", "workloads.gen_s", "coma.fast_s",
             "coma.slow_s", "sim.sync_s", "sim.dispatch_s", "stats.dump_s")
    m["trace.busy_s"] = sum(m[p] for p in parts)
    m["trace.overhead"] = ratio(res["b_wall_s"], untraced_s)
    m["harness.wall_run_s"] = untraced_s

    # Phase A: the closed loop's busy share and the JSON writer.
    all_rows = res["configs"]
    busy = sum(r["a_build_s"] + r["a_run_s"] + r["json_s"]
               for r in all_rows)
    m["harness.pool_eff"] = ratio(busy, res["jobs"] * res["a_wall_s"])
    m["stats.json_us"] = ratio(sum_of(all_rows, "json_s"), len(all_rows),
                               1e6)

    # Exact counts from the sheets of the traced configs.
    traced_keys = {r["key"] for r in rows}
    for row, rec in zip(all_rows, sheet_recs):
        if rec is None or row["key"] not in traced_keys:
            continue
        for name, (group, field) in SHEET_COUNTS:
            m[name] += rec[group][field]
        m["net.messages"] += (rec["network"]["requestMessages"]
                              + rec["network"]["blockMessages"])
        for p in rec["shadow"]:
            if p["entries"] == 8 and p["assoc"] == 0:
                m["tlb.shadow.accesses"] += (p["demandAccesses"]
                                             + p["writebackAccesses"])
    return m


def traced(workload, seed, work, checker):
    sheets = os.path.join(work, "sheets.jsonl")
    trace_sheets = os.path.join(work, "trace-sheets.jsonl")
    stages = None
    # Phase A runs one config at a time too, except on the paper grid,
    # where that would not fit the run's time limit.
    jobs = 1
    if workload == "paper-grid":
        res = run_sweep_worker(work, seed, sheets, keep_cache=True)
        checker.check_lines(read_lines(sheets), res["keys"])
        stages = res["stages"]
        jobs = JOBS
        cfgs = paper_grid_configs(seed)
        configs = [driver_config(c) for c in cfgs]
        pin = [c.key() for c in cfgs]
        warm = os.path.join(work, "cache-0")
    else:
        record, replay, live = replay_cells(work)
        if run_driver("record", record, work, setup_reps=1,
                      jobs=JOBS)["failed"]:
            raise BenchError("trace recording failed")
        run_cfgs = [driver_config(c) for c in replay]
        # Replays first, then their live baselines (phase A only).
        configs = run_cfgs + [driver_config(c, reference=True)
                              for c in live]
        pin = [c.key() for c in live] * 2
        res = run_driver("run", run_cfgs, work, sheets=sheets, seconds=0,
                         setup_reps=0, keep_cache=1)
        checker.check_lines(read_lines(sheets), pin[:len(run_cfgs)])
        warm = res["cache"]
    untraced_s = (stages["total"] if workload == "paper-grid"
                  else sum(res["config_s"][0]))

    res = run_driver("trace", configs, work, sheets=trace_sheets,
                     jobs=jobs, warm_cache=warm)
    rows = res["configs"]
    for r in rows:
        if r["error"]:
            checker.fail(f"{r['key']}: {r['error']}")
    recs = checker.check_lines(read_lines(trace_sheets), pin)
    traced_rows = [r for r, c in zip(rows, configs)
                   if not c.get("reference") and not r["error"]]
    m = layer_metrics(res, traced_rows, recs, untraced_s, checker)
    if stages:
        for name in ("expand", "submit", "collect", "render"):
            m[f"sweep.{name}_s"] = stages[name]
    if workload == "trace-replay":
        n = len(REPLAY_KERNELS) * len(REPLAY_SCHEMES)
        lines = read_lines(trace_sheets)
        replay_s = live_s = 0.0
        for i in range(n):
            rep, base = rows[i], rows[n + i]
            if lines[i] != lines[n + i]:
                checker.fail(f"{rep['key']}: replay sheet differs from "
                             f"live {base['key']}")
            cell = f"{live[i].workload}.{live[i].scheme}"
            m[f"sim.replay.vs_live.{cell}"] = ratio(
                rep["a_run_s"], base["a_run_s"])
            replay_s += rep["a_run_s"]
            live_s += base["a_run_s"]
        m["sim.replay.vs_live"] = ratio(replay_s, live_s)
    table = refs_table(rows, recs)
    spans = os.path.join(WORK_ROOT, "spans")
    os.makedirs(spans, exist_ok=True)
    with open(os.path.join(spans, f"{workload}-seed{seed}.json"), "w",
              encoding="utf-8") as f:
        json.dump({"workload": workload, "seed": seed, "sweep": stages,
                   "driver": res, "metrics": m}, f, indent=1)
    return m, table


# ---------------------------------------------------------------------------
# Maintenance commands
# ---------------------------------------------------------------------------

def pin(work):
    """Rewrite digests.json from the sheets the current code produces."""
    checker = Checker(pinning=True)
    sheets = os.path.join(work, "sheets.jsonl")
    res = run_sweep_worker(work, 1, sheets)
    checker.check_lines(read_lines(sheets), res["keys"])
    cfgs = expand(REPLAY_KERNELS, REPLAY_SCHEMES)
    os.remove(sheets)
    run_driver("run", [driver_config(c) for c in cfgs], work,
               sheets=sheets, seconds=0, setup_reps=0)
    checker.check_lines(read_lines(sheets), [c.key() for c in cfgs])
    if checker.failed:
        raise BenchError(f"{checker.failed} sheet(s) failed; not pinned")
    with open(DIGESTS, "w", encoding="utf-8") as f:
        json.dump(checker.pinned, f, indent=1, sort_keys=True)
        f.write("\n")
    say(f"pinned {len(checker.pinned)} digest(s) -> {DIGESTS}")


def table(work):
    """Untraced refs/s of every kernel x {L0, L3, V-COMA, VICTIMA} at 32
    nodes, scale 1, one config at a time."""
    cfgs = expand(TABLE_KERNELS, TABLE_SCHEMES)
    sheets = os.path.join(work, "sheets.jsonl")
    res = run_driver("trace", [driver_config(c) for c in cfgs], work,
                     sheets=sheets, jobs=1, traced=0)
    recs = [json.loads(line) for line in read_lines(sheets)]
    recs = [r if "totals" in r else None for r in recs]
    print(refs_table(res["configs"], recs))


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="rewrite digests.json from the current code")
    ap.add_argument("--table", action="store_true",
                    help="print the refs/s table of every kernel")
    args = ap.parse_args()
    if not (args.workload or args.pin or args.table):
        ap.error("--workload is required")

    try:
        require_sources()
        build()
        os.makedirs(WORK_ROOT, exist_ok=True)
        work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            if args.pin:
                return pin(work)
            if args.table:
                return table(work)
            checker = Checker()
            started = time.monotonic()
            if args.trace:
                metrics, refs = traced(args.workload, args.seed, work,
                                       checker)
                units = dict(PER_LAYER)
                print("refs/s per kernel x scheme (untraced "
                      f"Machine::run):\n{refs}")
            else:
                metrics = untraced(args.workload, args.seed, args.seconds,
                                   work, checker)
                units = dict(END_TO_END)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (BenchError, subprocess.CalledProcessError) as e:
        say(f"error: {e}")
        return 1

    say(f"{args.workload}: {time.monotonic() - started:.1f} s, "
        f"{checker.attempted} sheet(s) checked, {checker.failed} failed")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
