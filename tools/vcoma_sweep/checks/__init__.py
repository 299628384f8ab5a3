"""CI validators:

  * :mod:`vcoma_sweep.checks.stats` -- validates `vcoma_client --jsonl`
    sheets, Chrome traces and BENCH_*.json reports.
  * :mod:`vcoma_sweep.checks.perf` -- gates BENCH_perf_core.json
    ratios against bench/perf_baseline.json.
  * :mod:`vcoma_sweep.checks.claims` -- checks the paper's claims on
    a collected sweep.
  * :mod:`vcoma_sweep.checks.doc` -- checks a document's pasted
    tables against a fresh render.

Run them as ``python3 -m vcoma_sweep check-stats ...`` /
``check-perf ...`` / ``check-claims ...`` / ``check-doc ...``.
"""

from . import claims, doc, perf, stats  # noqa: F401

__all__ = ["stats", "perf", "claims", "doc"]
