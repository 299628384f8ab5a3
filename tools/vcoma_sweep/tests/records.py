"""Synthetic stats records for the table and claims tests.

`record()` builds a sheet with every field the collector reads, for
one expanded config. The default shadow misses satisfy every claim of
checks/claims.py; a test breaks one by overriding a scheme's shadow.
"""

import json

from vcoma_sweep import collect as C
from vcoma_sweep import spec as M

SIZES = (8, 16, 32, 64, 128, 256, 512)

#: scheme -> (demand misses, write-back misses) at 8 entries.
SHADOW8 = {
    "L0-TLB": (1000, 0),
    "L1-TLB": (800, 0),
    "L2-TLB": (600, 100),
    "L3-TLB": (500, 50),
    "V-COMA": (10, 2),
    "VICTIMA": (1000, 0),
    "NMT": (10, 2),
}


def shadow(demand8, writeback8=0):
    """Shadow points at every size; misses shrink with the size and
    the direct-mapped flavour misses 10% more."""
    points = []
    for entries in SIZES:
        for assoc in (0, 1):
            demand = demand8 * 8 // entries
            points.append({
                "entries": entries, "assoc": assoc,
                "demandAccesses": 100000,
                "demandMisses": demand + demand // 10 * assoc,
                "writebackAccesses": 10000,
                "writebackMisses": writeback8 * 8 // entries})
    return points


def record(cfg, refs=100000, **fields):
    """One stats sheet for @cfg; keyword fields replace the defaults."""
    is_vcoma = cfg.scheme == "V-COMA"
    rec = {
        "schema": 1,
        "workload": cfg.workload.partition(":")[0],
        "parameters": f"-p {cfg.workload}",
        "scheme": cfg.scheme,
        "numNodes": cfg.knobs["nodes"],
        "sharedBytes": 3 * 1024 * 1024,
        "execTime": 2000000 + 1000 * cfg.knobs["seed"],
        "totals": {"refs": refs, "busy": 1000, "sync": 200,
                   "locStall": 300, "remStall": 400,
                   "xlatStall": 7 if is_vcoma else 70},
        "xlatOverTotalStallPct": 1.0 if is_vcoma else 10.0,
        "tlb": {"accesses": 40000 if is_vcoma else refs,
                "misses": 20 if is_vcoma else 500},
        "pressureProfile": [0.01 * (i % 4) for i in range(64)],
        "shadow": shadow(*SHADOW8[cfg.scheme]),
        "protocol": {"remoteReads": 300, "injections": 4,
                     "injectionHops": 6, "sharedDrops": 1,
                     "swapOuts": 0},
        "dlb": {"filteredRefs": refs - 40000 if is_vcoma else 0,
                "sharedHits": 12 if is_vcoma else 0},
    }
    if cfg.scheme == "VICTIMA":
        rec["tlbSpill"] = {"probes": 500, "hits": 450, "fills": 500}
    rec.update(fields)
    return rec


def make_spec(sweeps, figures=()):
    return M.Spec({"name": "t", "defaults": {"scale": 0.1, "nodes": 32},
                   "sweeps": sweeps, "figures": list(figures)})


def rows_for(spec, patch=None):
    """Collected rows for every config of @spec; @patch(cfg, rec) may
    edit a record (return False to make the config a failed one)."""
    rows = []
    for cfg in spec.expand():
        rec = record(cfg)
        if patch is not None and patch(cfg, rec) is False:
            rec = {"key": cfg.key(), "error": "simulation failed"}
        rows.append(C._row_for(cfg, rec, "test"))
    return rows


def write_jsonl(path, spec_obj, patch=None):
    """The JSONL a run of @spec_obj would collect."""
    with open(path, "w", encoding="utf-8") as f:
        for cfg in M.Spec(spec_obj).expand():
            rec = record(cfg)
            if patch is not None:
                patch(cfg, rec)
            f.write(json.dumps(rec) + "\n")
