"""Render: normalized result rows -> the paper's tables, as Markdown.

A spec output whose file ends in ``.md`` is a table declaration; its
``type`` picks one of the renderers below, its ``sweep`` names the
sweep (or list of sweeps) whose rows it reads and ``title`` replaces
the default title (``{workload}`` expands in the per-workload types).

Every cell is computed from the collected sheet with the same formula
and precision the paper's tables use:

  * ``benchmarks``      -- Table 1: parameters and shared footprint.
  * ``miss_rate_pct``   -- Table 2: shadow-bank misses per reference
    (%) at 8/32/128 entries.
  * ``equivalent_size`` -- Table 3: the TLB size whose shadow misses
    match an 8-entry DLB's (log-interpolated; ``>512`` past the end).
  * ``shadow_curves``   -- Fig. 8: shadow misses per node at every
    size, plus L2/no_wback.
  * ``direct_mapped``   -- Fig. 9: direct-mapped vs fully associative
    shadow misses per node.
  * ``stall_share``     -- Table 4: translation time / stall time (%).
  * ``exec_time``       -- Fig. 10: the five cycle buckets as % of the
    TLB/8 total, averaged over every seed a variant ran with.
  * ``pressure_groups`` -- Fig. 11: the pressure profile in 16 groups.
  * ``walks``           -- the showdown: walks per 1k references under
    the configured structure (misses minus VICTIMA's spill hits).
  * ``injection``, ``dlb_scaling``, ``software_tlb``, ``am_assoc``,
    ``xlat_cost``, ``layout``, ``knob_sweep`` -- the Section 6
    ablations and the datacenter sensitivity sweep.
  * ``tag_overhead``    -- Section 6's virtual-tag overhead; pure
    arithmetic, no sweep.

Row and column order is the sweep's workload order (first appearance)
and the scheme registry's order, so a spec that lists its sweeps,
workloads or schemes in another order renders the same cells. A
failed config reads ``n/a*`` and is footnoted once per table.
"""

import math

from .spec import SCHEMES, TABLE_TYPES


class RenderError(ValueError):
    """Table declaration that cannot be satisfied by the rows."""


#: Cell text for a config whose simulation failed.
FAILED = "n/a*"

#: The registry's scheme order, which fixes column order.
SCHEME_ORDER = tuple(SCHEMES)

# Registry traits the tables read (src/translation/scheme.cc).
#: schemes whose structure also sees the SLC write-back stream.
COUNTS_WRITEBACKS = ("L2-TLB", "L3-TLB", "V-COMA", "NMT")
#: home-side structures: their tiny rates need extra decimals.
HOME_TRANSLATION = ("V-COMA", "NMT")
#: per-node TLBs, the columns Table 3 sizes against the DLB.
PER_NODE_TLB = ("L0-TLB", "L1-TLB", "L2-TLB", "L3-TLB", "VICTIMA")
#: schemes whose TLB victims spill into the SLC.
SPILL_SCHEMES = ("VICTIMA",)
#: row labels of the timed tables (the paper writes V-COMA as "DLB").
TIMED_LABEL = {"V-COMA": "DLB"}

#: Table 2's TLB/DLB sizes.
TABLE2_SIZES = (8, 32, 128)
#: Fig. 11's pressure profile is summarized in this many groups.
PRESSURE_GROUPS = 16
#: Section 6's block sizes and extra virtual-tag bytes.
TAG_BLOCKS = (32, 64, 128)
TAG_EXTRA_BYTES = (2, 3)


def fmt(value, prec):
    """``printf("%.*f")``: the precision every paper table uses."""
    return f"{value:.{prec}f}"


def timed_label(scheme):
    return TIMED_LABEL.get(scheme, scheme)


def _unique(seq):
    out = []
    for item in seq:
        if item not in out:
            out.append(item)
    return out


class Table:
    """One Markdown table: title, header, rows and footnotes."""

    def __init__(self, title, header):
        self.title = title
        self.header = list(header)
        self.rows = []
        self.footnotes = []

    def row(self, cells):
        cells = [str(c) for c in cells]
        if len(cells) != len(self.header):
            raise RenderError(f"table {self.title!r}: row width "
                              f"{len(cells)} != header width "
                              f"{len(self.header)}")
        self.rows.append(cells)

    def footnote(self, text):
        if text not in self.footnotes:
            self.footnotes.append(text)

    def to_markdown(self):
        def line(cells):
            return "| " + " | ".join(c.replace("|", "\\|")
                                     for c in cells) + " |"
        out = [f"### {self.title}", "", line(self.header),
               "|" + "---|" * len(self.header)]
        out += [line(r) for r in self.rows]
        if self.footnotes:
            out.append("")
            out += [f"* {f}" for f in self.footnotes]
        return "\n".join(out) + "\n"


class Rows:
    """The rows of a declaration's sweeps, with failed configs kept:
    `good()` turns one into None and footnotes the table it renders
    into, the way a failed cell reads n/a*."""

    def __init__(self, fig, all_rows):
        self.fig = fig
        self.rows = [r for r in all_rows if r.get("sweep") in fig.sweeps]
        if fig.sweeps and not self.rows:
            raise RenderError(f"table {fig.file}: sweep {fig.sweep!r} "
                              "produced no rows")

    def workloads(self, scheme=None):
        return _unique(r["workload"] for r in self.rows
                       if scheme is None or r["scheme"] == scheme)

    def schemes(self, among=SCHEME_ORDER):
        present = {r["scheme"] for r in self.rows}
        return [s for s in SCHEME_ORDER if s in present and s in among]

    def values(self, knob):
        return sorted({r[knob] for r in self.rows})

    def find(self, **match):
        """Every row whose fields equal @match, in row order."""
        return [r for r in self.rows
                if all(r.get(k) == v for k, v in match.items())]

    def one(self, **match):
        found = self.find(**match)
        if not found:
            what = ", ".join(f"{k}={v}" for k, v in match.items())
            raise RenderError(f"table {self.fig.file}: no row with "
                              f"{what} in sweep {self.fig.sweep!r}")
        return found[0]

    @staticmethod
    def good(row, table):
        if "error" in row:
            table.footnote(f"n/a: config {row['key']} failed to "
                           "simulate")
            return None
        return row


def _title(fig, default, workload=None):
    title = fig.title or default
    return title.replace("{workload}", workload) if workload else title


def shadow_misses(row, entries, assoc, writebacks):
    for p in row["shadow"]:
        if p["entries"] == entries and p["assoc"] == assoc:
            return p["demandMisses"] + (p["writebackMisses"]
                                        if writebacks else 0)
    raise RenderError(f"no shadow point for {entries} entries, assoc "
                      f"{assoc} in {row['key']}")


def misses_per_node(row, entries, assoc, writebacks):
    nodes = row["num_nodes"]
    misses = shadow_misses(row, entries, assoc, writebacks)
    return misses / nodes if nodes else 0.0


def miss_rate_pct(row, entries, assoc, writebacks):
    refs = row["refs"]
    misses = shadow_misses(row, entries, assoc, writebacks)
    return 100.0 * misses / refs if refs else 0.0


def shadow_sizes(row):
    return sorted({p["entries"] for p in row["shadow"]})


def counts_writebacks(scheme):
    return scheme in COUNTS_WRITEBACKS


def equivalent_size(row, writebacks, target):
    """Smallest shadow size whose misses per node fall at or below
    @target, log-interpolated between the swept sizes; -1 when even
    the largest size does not."""
    prev_size = 0.0
    prev_misses = 0.0
    for i, size in enumerate(shadow_sizes(row)):
        misses = misses_per_node(row, size, 0, writebacks)
        if misses <= target:
            if i == 0:
                return float(size)
            f = ((math.log(max(prev_misses, 1.0))
                  - math.log(max(target, 1.0)))
                 / max(math.log(max(prev_misses, 1.0))
                       - math.log(max(misses, 1.0)), 1e-9))
            return prev_size + f * (float(size) - prev_size)
        prev_size = float(size)
        prev_misses = misses
    return -1.0


def _pressure_stats(profile):
    return sum(profile) / len(profile), max(profile)


# Tables 1-4, Figs. 8-11.

def table_benchmarks(fig, rows):
    scale = rows.rows[0]["scale"]
    t = Table(_title(fig, "Table 1: Benchmarks")
              + f" (scale={fmt(scale, 2)})",
              ["Benchmark", "Parameters", "Shared Memory (MB)"])
    for w in rows.workloads():
        r = rows.good(rows.one(workload=w), t)
        t.row([w, r["parameters"],
               fmt(r["shared_bytes"] / (1024.0 * 1024.0), 2)]
              if r else [w, FAILED, FAILED])
    return [t]


def table_miss_rate_pct(fig, rows):
    schemes = rows.schemes()
    t = Table(_title(fig, "Table 2: TLB/DLB miss rates per processor "
                          "reference (%)"),
              ["SYSTEM"] + [f"{s}/{n}" for n in TABLE2_SIZES
                            for s in schemes])
    for w in rows.workloads():
        cells = [w]
        for n in TABLE2_SIZES:
            for s in schemes:
                r = rows.good(rows.one(workload=w, scheme=s), t)
                prec = 4 if s in HOME_TRANSLATION else 2
                wb = counts_writebacks(s)
                cells.append(fmt(miss_rate_pct(r, n, 0, wb), prec)
                             if r else FAILED)
        t.row(cells)
    return [t]


def table_equivalent_size(fig, rows):
    tlbs = rows.schemes(among=PER_NODE_TLB)
    t = Table(_title(fig, "Table 3: TLB size equivalent to an 8-entry "
                          "DLB"),
              ["Benchmark"] + tlbs + ["DLB/8 misses/node"])
    for w in rows.workloads():
        dlb = rows.good(rows.one(workload=w, scheme="V-COMA"), t)
        if dlb is None:
            # Without the DLB baseline there is no target to match.
            t.row([w] + [FAILED] * (len(tlbs) + 1))
            continue
        target = misses_per_node(dlb, 8, 0, True)
        cells = [w]
        for s in tlbs:
            r = rows.good(rows.one(workload=w, scheme=s), t)
            if r is None:
                cells.append(FAILED)
                continue
            eq = equivalent_size(r, counts_writebacks(s), target)
            # ">512": even the largest swept TLB cannot match the
            # shared DLB, whose cold floor (one fill per page
            # machine-wide) undercuts any private TLB's.
            cells.append(f">{shadow_sizes(r)[-1]}" if eq < 0
                         else fmt(eq, 0))
        cells.append(fmt(target, 0))
        t.row(cells)
    return [t]


def _per_size_tables(fig, rows, default_title, columns):
    """One table per workload, one row per shadow size; @columns maps
    a scheme to its [(header, assoc, writebacks)] cells."""
    tables = []
    schemes = rows.schemes()
    for w in rows.workloads():
        t = Table(_title(fig, default_title, w),
                  ["size"] + [h for s in schemes
                              for h, _a, _wb in columns(s)])
        runs = [rows.good(rows.one(workload=w, scheme=s), t)
                for s in schemes]
        sizes = next((shadow_sizes(r) for r in runs if r), [])
        if not sizes:
            t.row(["all"] + [FAILED] * (len(t.header) - 1))
        for n in sizes:
            cells = [str(n)]
            for s, r in zip(schemes, runs):
                for _h, assoc, wb in columns(s):
                    cells.append(fmt(misses_per_node(r, n, assoc, wb), 0)
                                 if r else FAILED)
            t.row(cells)
        tables.append(t)
    return tables


def table_shadow_curves(fig, rows):
    def columns(s):
        cols = [(s, 0, counts_writebacks(s))]
        if s == "L2-TLB":
            # The L2 variant whose SLC keeps physical pointers, so
            # write-backs bypass the TLB (Section 2.2.2).
            cols.append(("L2/no_wback", 0, False))
        return cols
    return _per_size_tables(
        fig, rows, "Figure 8 ({workload}): translation misses per node "
                   "vs TLB/DLB size", columns)


def table_direct_mapped(fig, rows):
    def columns(s):
        wb = counts_writebacks(s)
        return [(f"{s}/DM", 1, wb), (s, 0, wb)]
    return _per_size_tables(
        fig, rows, "Figure 9 ({workload}): direct-mapped vs fully "
                   "associative misses per node", columns)


def table_stall_share(fig, rows):
    workloads = rows.workloads()
    t = Table(_title(fig, "Table 4: address translation time / total "
                          "stall time (%)"),
              ["Config"] + workloads)
    for n in rows.values("entries"):
        for s in rows.schemes():
            cells = [f"{timed_label(s)}/{n}"]
            for w in workloads:
                r = rows.good(rows.one(workload=w, scheme=s, entries=n),
                              t)
                cells.append(fmt(r["xlat_over_total_stall_pct"], 2)
                             if r else FAILED)
            t.row(cells)
    return [t]


#: Fig. 10's bar labels: the paper calls the L0 baseline plain "TLB".
EXEC_LABEL = {"L0-TLB": "TLB", "V-COMA": "DLB"}
EXEC_BUCKETS = ("busy", "sync", "loc_stall", "rem_stall", "xlat_stall")


def table_exec_time(fig, rows):
    tables = []
    for w in rows.workloads():
        t = Table(_title(fig, "Figure 10 ({workload}): execution time "
                              "breakdown (% of TLB/8 total)", w),
                  ["Config", "busy", "sync", "loc-stall", "rem-stall",
                   "xlat", "total"])
        mine = rows.find(workload=w)
        variants = sorted(
            _unique((r["scheme"], r["entries"], r["raytrace_v2"],
                     r["assoc"]) for r in mine),
            key=lambda v: (SCHEME_ORDER.index(v[0]),) + v[1:])
        base = 0.0
        for scheme, entries, v2, assoc in variants:
            label = (f"{EXEC_LABEL.get(scheme, scheme)}/{entries}"
                     + ("/DM" if assoc == 1 else "")
                     + ("/V2" if v2 else ""))
            # RAYTRACE's work queue makes single runs noisy: a variant
            # run under several seeds is their average, and one
            # failed seed drops the whole row rather than skew it.
            runs = sorted(rows.find(workload=w, scheme=scheme,
                                    entries=entries, raytrace_v2=v2,
                                    assoc=assoc),
                          key=lambda r: r["seed"])
            runs = [rows.good(r, t) for r in runs]
            if not all(runs):
                t.row([label] + [FAILED] * 6)
                continue
            means = [sum(float(r[k]) for r in runs) / len(runs)
                     for k in EXEC_BUCKETS]
            total = sum(means)
            if base == 0:
                base = total
            t.row([label] + [fmt(100.0 * v / base, 1)
                             for v in means + [total]])
        tables.append(t)
    return tables


def table_pressure_groups(fig, rows):
    tables = []
    for w in rows.workloads("V-COMA"):
        t = Table(_title(fig, "Figure 11 ({workload}): pressure profile "
                              "over global page sets", w),
                  ["set group", "mean pressure", "max pressure"])
        r = rows.good(rows.one(workload=w, scheme="V-COMA"), t)
        profile = r["pressure_profile"] if r else []
        if not profile:
            if r:
                t.footnote("n/a: run produced no pressure profile")
            t.row(["ALL", FAILED, FAILED])
            tables.append(t)
            continue
        per = max(1, len(profile) // PRESSURE_GROUPS)
        for g in range(PRESSURE_GROUPS):
            chunk = profile[g * per:(g + 1) * per]
            if not chunk:
                break
            mean, peak = _pressure_stats(chunk)
            t.row([f"{g * per}-{g * per + len(chunk) - 1}",
                   fmt(mean, 4), fmt(peak, 4)])
        mean, peak = _pressure_stats(profile)
        t.row(["ALL", fmt(mean, 4), fmt(peak, 4)])
        tables.append(t)
    return tables


# The showdown, Section 6 and the datacenter sweep.

def table_walks(fig, rows):
    schemes = rows.schemes()
    spill = [s for s in schemes if s in SPILL_SCHEMES]
    t = Table(_title(fig, "Showdown: translation walks per 1k "
                          "references (8-entry structures, 1998 vs "
                          "modern)"),
              ["Benchmark"] + schemes
              + [f"{s} spill hit%" for s in spill])
    for w in rows.workloads():
        cells = [w]
        spill_cells = []
        for s in schemes:
            r = rows.good(rows.one(workload=w, scheme=s), t)
            # Walks actually paid: misses of the configured structure
            # minus those VICTIMA's spill probe rescued. NMT computes
            # translations, so its count is structurally zero.
            cells.append(fmt(r["walks_per_1k_refs"], 3) if r else FAILED)
            if s in spill:
                spill_cells.append(
                    FAILED if r is None
                    else fmt(100.0 * r["spill_hits"] / r["spill_probes"],
                             1) if r["spill_probes"] else "0.0")
        t.row(cells + spill_cells)
    return [t]


def table_injection(fig, rows):
    t = Table(_title(fig, "Ablation: injection behaviour under V-COMA"),
              ["Benchmark", "injections", "hops", "hops/injection",
               "shared drops", "swap-outs"])
    for w in rows.workloads("V-COMA"):
        r = rows.good(rows.one(workload=w, scheme="V-COMA"), t)
        if r is None:
            t.row([w] + [FAILED] * 5)
            continue
        per = (r["injection_hops"] / r["injections"]
               if r["injections"] else 0.0)
        t.row([w, r["injections"], r["injection_hops"], fmt(per, 2),
               r["shared_drops"], r["swap_outs"]])
    return [t]


def table_dlb_scaling(fig, rows):
    schemes = rows.schemes()
    workloads = "/".join(rows.workloads())
    t = Table(_title(fig, "Ablation: DLB sharing effect vs machine size "
                          f"({workloads})"),
              ["nodes"] + [f"{timed_label(s)}/{rows.one(scheme=s)['entries']}"
                           " miss rate (%)" for s in schemes])
    for n in rows.values("nodes"):
        cells = [str(n)]
        for s in schemes:
            r = rows.good(rows.one(scheme=s, nodes=n), t)
            cells.append(fmt(miss_rate_pct(r, r["entries"], 0,
                                           counts_writebacks(s)), 4)
                         if r else FAILED)
        t.row(cells)
    return [t]


def table_software_tlb(fig, rows):
    """The 0-entry L2-TLB (Jacob & Mudge's software-managed
    translation as Section 3.3 reads it) against 8- and 32-entry
    hardware L2-TLBs."""
    trap = rows.one(entries=0)["xlat_penalty"]
    t = Table(_title(fig, "Ablation: software-managed translation as a "
                          f"0-entry L2-TLB (trap cost {trap} cycles) vs "
                          "hardware L2-TLBs"),
              ["Benchmark", "traps per 1k refs", "SW xlat cycles/ref",
               "HW/8 xlat cycles/ref", "SW exec / HW-32 exec"])
    for w in rows.workloads():
        sw, hw8, hw32 = (rows.good(rows.one(workload=w, entries=n), t)
                         for n in (0, 8, 32))
        if not (sw and hw8 and hw32):
            # Every column mixes the three runs; none survive alone.
            t.row([w] + [FAILED] * 4)
            continue
        t.row([w, fmt(1000.0 * sw["tlb_misses"] / sw["refs"], 1),
               fmt(float(sw["xlat_stall"]) / sw["refs"], 2),
               fmt(float(hw8["xlat_stall"]) / hw8["refs"], 2),
               fmt(sw["exec_time"] / hw32["exec_time"], 3)])
    return [t]


def table_am_assoc(fig, rows):
    workloads = "/".join(rows.workloads())
    t = Table(_title(fig, "Ablation: attraction-memory associativity "
                          f"under V-COMA ({workloads})"),
              ["assoc", "global-set capacity", "exec time",
               "injections", "shared drops", "max pressure"])
    for k in rows.values("am_assoc"):
        row = rows.one(am_assoc=k)
        cells = [str(k), str(row["nodes"] * k)]
        r = rows.good(row, t)
        if r is None:
            t.row(cells + [FAILED] * 4)
            continue
        peak = max(r["pressure_profile"], default=0.0)
        t.row(cells + [r["exec_time"], r["injections"],
                       r["shared_drops"], fmt(peak, 4)])
    return [t]


def table_xlat_cost(fig, rows):
    schemes = rows.schemes()
    workloads = "/".join(rows.workloads())
    t = Table(_title(fig, "Ablation: sensitivity to the translation-miss "
                          f"service time ({workloads} exec time, "
                          "millions of cycles)"),
              ["miss service (cycles)"]
              + [" ".join(_unique((s, timed_label(s))))
                 + f"/{rows.one(scheme=s)['entries']}" for s in schemes])
    for p in rows.values("xlat_penalty"):
        cells = [str(p)]
        for s in schemes:
            r = rows.good(rows.one(scheme=s, xlat_penalty=p), t)
            cells.append(fmt(r["exec_time"] / 1e6, 2) if r else FAILED)
        t.row(cells)
    return [t]


def table_layout(fig, rows):
    t = Table(_title(fig, "Ablation: virtual-layout pressure on the "
                          "global page sets (V-COMA)"),
              ["layout", "mean pressure", "max pressure", "max/mean",
               "swap-outs"])
    for w in rows.workloads("V-COMA"):
        r = rows.good(rows.one(workload=w, scheme="V-COMA"), t)
        if r is None or not r["pressure_profile"]:
            if r:
                t.footnote("n/a: run produced no pressure profile")
            t.row([w] + [FAILED] * 4)
            continue
        mean, peak = _pressure_stats(r["pressure_profile"])
        t.row([w, fmt(mean, 4), fmt(peak, 4),
               fmt(peak / mean if mean > 0 else 0, 1), r["swap_outs"]])
    return [t]


def _knob_label(workload):
    """"KVLOOKUP:skew=0.20,read=0.50" -> ("skew/read", "0.20/0.50")."""
    _base, _sep, knobs = workload.partition(":")
    pairs = [kv.partition("=") for kv in knobs.split(",") if kv]
    return ("/".join(k for k, _e, _v in pairs) or "workload",
            "/".join(v for _k, _e, v in pairs) or workload)


def table_knob_sweep(fig, rows):
    """Each scheme's 8-entry miss rate across inline workload knobs,
    plus the V-COMA run's DLB filtering and sharing evidence."""
    schemes = rows.schemes()
    workloads = rows.workloads()
    t = Table(_title(fig, "Datacenter sweep: 8-entry translation "
                          "structures across workload knobs"),
              [_knob_label(workloads[0])[0]]
              + [f"{timed_label(s)} miss%" for s in schemes]
              + ["DLB filtered%", "DLB shared hits", "remote reads"])
    for w in workloads:
        cells = [_knob_label(w)[1]]
        for s in schemes:
            r = rows.good(rows.one(workload=w, scheme=s), t)
            prec = 4 if s in HOME_TRANSLATION else 2
            wb = counts_writebacks(s)
            cells.append(fmt(miss_rate_pct(r, 8, 0, wb), prec)
                         if r else FAILED)
        dlb = rows.good(rows.one(workload=w, scheme="V-COMA"), t)
        if dlb is None:
            cells += [FAILED] * 3
        else:
            refs = max(1.0, float(dlb["refs"]))
            cells += [fmt(100.0 * dlb["dlb_filtered_refs"] / refs, 1),
                      dlb["dlb_shared_hits"], dlb["remote_reads"]]
        t.row(cells)
    return [t]


def table_tag_overhead(fig, _rows):
    """Extra virtual-tag bytes per attraction-memory block, as a share
    of the block (Section 6)."""
    t = Table(_title(fig, "Section 6: virtual-tag memory overhead of "
                          "V-COMA"),
              ["block size (B)"] + [f"extra tag {b}B (%)"
                                    for b in TAG_EXTRA_BYTES])
    for block in TAG_BLOCKS:
        t.row([str(block)] + [fmt(100.0 * (b / block), 2)
                              for b in TAG_EXTRA_BYTES])
    return [t]


TABLES = {t: globals()["table_" + t] for t in TABLE_TYPES}


def render_table(fig, all_rows):
    """One table declaration -> Markdown text."""
    rows = Rows(fig, all_rows)
    return "\n".join(t.to_markdown() for t in TABLES[fig.type](fig, rows))
