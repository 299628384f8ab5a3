"""vcoma_sweep -- declarative sweep orchestration + table/figure pipeline.

A sweep is declared as data (a JSON spec: schemes x workloads x knobs,
cross-product expansion with per-config overrides), run in-process
by `vcoma_client direct` (one Runner::runAll batch per invocation),
collected from the client's `--jsonl` output into one normalized
result table with provenance, and rendered as the paper's tables
(Markdown) and figures (SVG) plus a BENCH_*.json history dashboard.
`check-claims` checks the paper's claims on the collected table.

Everything is Python stdlib only -- the SVGs are emitted directly, so
CI needs no matplotlib -- and every simulation byte still comes out
of the C++ tree: the same spec produces byte-identical collected
JSONL from a cold or a warm cache.

Entry point: ``python3 -m vcoma_sweep --help`` (run from `tools/`, or
with `tools/` on PYTHONPATH).
"""

__all__ = [
    "spec", "submit", "collect", "render", "tables", "svg", "dashboard",
    "checks",
]

__version__ = "1.0"
