"""Check the paper's claims against a collected sweep.

Usage:
    python3 -m vcoma_sweep check-claims SPEC --jsonl RESULTS.jsonl

The client's JSONL is joined against the spec's expansion (the
collector's positional join, so a stale or reordered file fails
loudly). Untimed sheets are grouped by workload and every knob but the
scheme and the configured size; claims 1-3 read each group's shadow
banks at 8 entries, which every untimed run of the group shares:

  1. miss_ordering -- misses fall with the level of the TLB:
     L0 >= L1 >= L2/no_wback >= L3 (Fig. 8's filtering effect). L2
     with write-backs is left out: it rises above L1 on OCEAN.
  2. l2_writebacks -- SLC write-backs hurt the L2-TLB: L2 sits
     strictly above L2/no_wback.
  3. dlb_below_tlb -- the 8-entry DLB misses less than every 8-entry
     per-node TLB (Tables 2 and 3).
  4. dlb_filtering -- every V-COMA sheet, timed or not, accounts for
     all its references: dlb.filteredRefs + tlb.accesses ==
     totals.refs. The home DLBs see only what the attraction memory
     could not serve.

A claim whose schemes no group carries reports `skipped`, never
`pass`. Exit status 1 if any claim fails.
"""

import argparse
import sys

from .. import collect as C
from ..spec import KNOBS, SpecError, load_spec
from ..tables import PER_NODE_TLB, counts_writebacks, shadow_misses

#: the knobs that do not change an untimed run's shadow banks.
SIZE_KNOBS = ("entries", "assoc")


def _groups(rows):
    """Untimed good rows -> {group: {scheme: row}} (first row wins)."""
    groups = {}
    for r in rows:
        if "error" in r or r["timed"]:
            continue
        key = (r["workload"],) + tuple(
            (k, r[k]) for k in sorted(r) if k in KNOBS
            and k not in SIZE_KNOBS)
        groups.setdefault(key, {}).setdefault(r["scheme"], r)
    return groups


def _misses(row, writebacks):
    return shadow_misses(row, 8, 0, writebacks)


def claim_miss_ordering(rows):
    order = (("L0-TLB", False), ("L1-TLB", False), ("L2-TLB", False),
             ("L3-TLB", True))
    names = ("L0", "L1", "L2/no_wback", "L3")
    checked, failures = 0, []
    for by in _groups(rows).values():
        if not all(s in by for s, _wb in order):
            continue
        checked += 1
        misses = [_misses(by[s], wb) for s, wb in order]
        if any(a < b for a, b in zip(misses, misses[1:])):
            failures.append(
                f"{by['L0-TLB']['workload']}: " + " >= ".join(
                    f"{n} {m}" for n, m in zip(names, misses))
                + f" fails ({by['L0-TLB']['key']})")
    return checked, failures


def claim_l2_writebacks(rows):
    checked, failures = 0, []
    for by in _groups(rows).values():
        row = by.get("L2-TLB")
        if row is None:
            continue
        checked += 1
        with_wb, without = _misses(row, True), _misses(row, False)
        if not with_wb > without:
            failures.append(f"{row['workload']}: L2 {with_wb} <= "
                            f"L2/no_wback {without} ({row['key']})")
    return checked, failures


def claim_dlb_below_tlb(rows):
    checked, failures = 0, []
    for by in _groups(rows).values():
        dlb = by.get("V-COMA")
        tlbs = [s for s in PER_NODE_TLB if s in by]
        if dlb is None or not tlbs:
            continue
        checked += 1
        target = _misses(dlb, True)
        for s in tlbs:
            misses = _misses(by[s], counts_writebacks(s))
            if not target < misses:
                failures.append(f"{dlb['workload']}: DLB/8 {target} >= "
                                f"{s}/8 {misses} ({dlb['key']})")
    return checked, failures


def claim_dlb_filtering(rows):
    checked, failures = 0, []
    for r in rows:
        if "error" in r or r["scheme"] != "V-COMA":
            continue
        checked += 1
        if r["dlb_filtered_refs"] + r["tlb_accesses"] != r["refs"]:
            failures.append(
                f"{r['key']}: dlb.filteredRefs {r['dlb_filtered_refs']}"
                f" + tlb.accesses {r['tlb_accesses']} != totals.refs "
                f"{r['refs']}")
    return checked, failures


CLAIMS = (
    ("miss_ordering", claim_miss_ordering),
    ("l2_writebacks", claim_l2_writebacks),
    ("dlb_below_tlb", claim_dlb_below_tlb),
    ("dlb_filtering", claim_dlb_filtering),
)


def check_claims(rows):
    """[(claim, "pass" | "fail" | "skipped", [failure lines])]."""
    results = []
    for name, claim in CLAIMS:
        checked, failures = claim(rows)
        status = ("fail" if failures else "pass" if checked
                  else "skipped")
        results.append((name, status, failures, checked))
    return results


def main(argv=None):
    ap = argparse.ArgumentParser(prog="vcoma_sweep check-claims")
    ap.add_argument("spec")
    ap.add_argument("--jsonl", required=True,
                    help="the client JSONL a run of SPEC collected")
    args = ap.parse_args(argv)
    try:
        configs = load_spec(args.spec).expand()
        rows = C.collect_jsonl(configs, args.jsonl)
    except (SpecError, C.CollectError) as e:
        print(f"check-claims: error: {e}", file=sys.stderr)
        sys.exit(1)
    failed = False
    for name, status, failures, checked in check_claims(rows):
        print(f"check-claims: {name}: {status} ({checked} checked)")
        for line in failures:
            print(f"  {line}")
        failed = failed or status == "fail"
    if failed:
        sys.exit(1)
