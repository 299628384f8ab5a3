"""CLI: python3 -m vcoma_sweep <command> ...

Commands:

  run SPEC        expand -> submit -> collect -> render -> dashboard
  expand SPEC     print the expanded config list (pure dry run)
  collect SPEC    re-collect an existing JSONL into results.json
  render SPEC     re-render figures from an existing results.json
  dashboard       build the BENCH_*.json history dashboard alone
  check-stats     validate stats JSONL, traces, BENCH reports
  check-perf      gate BENCH_perf_core.json against the baseline
  check-claims    check the paper's claims on a collected sweep
  check-doc       check a document's pasted tables against a render

`run` is the push-button paper pipeline:

  python3 -m vcoma_sweep run specs/paper_grid.json

Spec paths resolve literally first, then against the stock specs
shipped in vcoma_sweep/specs/. Everything lands in --out-dir
(default sweep_out/<spec name>/): results.jsonl (byte-identical
cold or warm), results.json (the normalized table), the declared
figures (*.svg) and tables (*.md), and dashboard.html.
"""

import argparse
import os
import sys

from . import collect as C
from . import dashboard as D
from . import render as R
from . import submit as B
from .checks import claims as check_claims
from .checks import doc as check_doc
from .checks import perf as check_perf
from .checks import stats as check_stats
from .spec import SpecError, load_spec


def say(msg):
    print(f"vcoma_sweep: {msg}", file=sys.stderr)


def die(msg):
    print(f"vcoma_sweep: error: {msg}", file=sys.stderr)
    sys.exit(1)


def add_backend_flags(ap):
    ap.add_argument("--backend", default="direct",
                    choices=list(B.BACKENDS),
                    help="accepted for existing command lines; "
                         "`direct` is the only value")
    ap.add_argument("--client", default=None,
                    help="vcoma_client binary (default: $VCOMA_CLIENT "
                         "or the build tree)")


def out_dir_for(args, spec):
    return args.out_dir or os.path.join("sweep_out", spec.name)


def backend_options(args):
    return B.Options(backend=args.backend, client=args.client)


def cmd_expand(args):
    spec = load_spec(args.spec)
    configs = spec.expand()
    options = backend_options(args)
    for line in B.dry_run_lines(configs, options):
        print(line)
    say(f"spec {spec.name!r}: {len(configs)} config(s), "
        f"{len(spec.figures)} figure(s)")


def cmd_run(args):
    spec = load_spec(args.spec)
    configs = spec.expand()
    out_dir = out_dir_for(args, spec)
    options = backend_options(args)
    jsonl = os.path.join(out_dir, "results.jsonl")
    if args.dry_run:
        for line in B.dry_run_lines(configs, options, jsonl):
            print(line)
        return
    os.makedirs(out_dir, exist_ok=True)
    say(f"spec {spec.name!r}: {len(configs)} config(s)")
    result = B.submit(configs, jsonl, options, log=say,
                      strict=not args.keep_going)
    hits = sum(1 for v in result.cached.values() if v)
    say(f"{result.invocations} invocation(s), {hits} cache hit(s) "
        f"-> {jsonl}")
    rows = C.collect_jsonl(configs, jsonl, submit_result=result)
    results = os.path.join(out_dir, "results.json")
    C.write_results(rows, results, spec.name)
    say(f"collected {len(rows)} row(s) -> {results}")
    if not args.no_render and spec.figures:
        R.render_figures(spec, rows, out_dir, log=say)
    if not args.no_dashboard:
        bench_root = args.bench_root or "."
        _text, current, stale = D.build_dashboard(
            bench_root,
            baseline_path=args.baseline,
            out_path=os.path.join(out_dir, "dashboard.html"))
        say(f"dashboard: {current} bench report(s), {stale} stale "
            f"-> {os.path.join(out_dir, 'dashboard.html')}")


def cmd_collect(args):
    spec = load_spec(args.spec)
    configs = spec.expand()
    rows = C.collect_jsonl(configs, args.jsonl)
    C.write_results(rows, args.out, spec.name)
    say(f"collected {len(rows)} row(s) -> {args.out}")


def cmd_render(args):
    spec = load_spec(args.spec)
    doc = C.read_results(args.results)
    paths = R.render_figures(spec, doc["rows"], args.out_dir, log=say)
    say(f"{len(paths)} output(s) -> {args.out_dir}")


def cmd_dashboard(args):
    _text, current, stale = D.build_dashboard(
        args.bench_root, baseline_path=args.baseline,
        out_path=args.out)
    say(f"dashboard: {current} bench report(s), {stale} stale "
        f"-> {args.out}")


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="vcoma_sweep",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="full pipeline: submit + collect "
                                   "+ render + dashboard")
    p.add_argument("spec")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--dry-run", action="store_true",
                   help="print the expanded configs and the exact "
                        "client commands; submit nothing")
    p.add_argument("--keep-going", action="store_true",
                   help="tolerate per-config simulation failures "
                        "(rows become n/a*) instead of aborting")
    p.add_argument("--no-render", action="store_true")
    p.add_argument("--no-dashboard", action="store_true")
    p.add_argument("--bench-root", default=None,
                   help="tree to scan for BENCH_*.json (default .)")
    p.add_argument("--baseline", default=None,
                   help="perf baseline (default "
                        "<bench-root>/bench/perf_baseline.json)")
    add_backend_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("expand", help="print the expanded config "
                                      "list and invocation plan")
    p.add_argument("spec")
    add_backend_flags(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("collect", help="JSONL -> results.json")
    p.add_argument("spec")
    p.add_argument("--jsonl", required=True)
    p.add_argument("--out", default="results.json")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("render", help="results.json -> figures and "
                                      "tables")
    p.add_argument("spec")
    p.add_argument("--results", required=True)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("dashboard", help="BENCH_*.json history -> "
                                         "dashboard.html")
    p.add_argument("--bench-root", default=".")
    p.add_argument("--baseline", default=None)
    p.add_argument("--out", default="dashboard.html")
    p.set_defaults(func=cmd_dashboard)

    # The folded-in CI validators keep their own argparse surfaces.
    known = {"run", "expand", "collect", "render", "dashboard"}
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "check-stats":
        return check_stats.main(argv[1:])
    if argv and argv[0] == "check-perf":
        return check_perf.main(argv[1:])
    if argv and argv[0] == "check-claims":
        return check_claims.main(argv[1:])
    if argv and argv[0] == "check-doc":
        return check_doc.main(argv[1:])
    if argv and argv[0] not in known and argv[0] not in (
            "-h", "--help"):
        die(f"unknown command {argv[0]!r} (run, expand, collect, "
            "render, dashboard, check-stats, check-perf, "
            "check-claims, check-doc)")

    args = ap.parse_args(argv)
    try:
        args.func(args)
    except (SpecError, C.CollectError, R.RenderError,
            B.SubmitError) as e:
        die(str(e))


if __name__ == "__main__":
    main()
