"""Render: normalized result rows -> the paper's figures and tables.

A declared `*.md` output is a Markdown table (tables.py); a `*.svg`
one is a figure, of one of four types:

  * ``exec_breakdown`` -- stacked bars of the five cycle buckets
    (busy / sync / local stall / remote stall / translation stall),
    normalized to a baseline scheme's total per workload. The
    paper's execution-time-breakdown figure.
  * ``miss_rates``     -- grouped bars of translation-structure
    walks per 1k processor references per scheme x workload.
  * ``miss_curves``    -- lines of misses per node vs a swept knob
    (log2 x axis), one series per workload/scheme.
  * ``pressure``       -- the Fig. 11 memory-pressure profile across
    global page sets, one line per workload under one scheme.

Rows with an "error" field are skipped (rendered as a footnote
count), as the tables print their cells n/a*.
"""

import math
import os

from . import svg as S
from .collect import sweep_rows
from .tables import RenderError, render_table

BREAKDOWN_SEGMENTS = (
    ("busy", "busy"),
    ("sync", "sync"),
    ("loc_stall", "local stall"),
    ("rem_stall", "remote stall"),
    ("xlat_stall", "translation"),
)


def _unique(seq):
    out = []
    for item in seq:
        if item not in out:
            out.append(item)
    return out


def _short(workload):
    """Group label: keep knobbed spellings readable."""
    base, sep, knobs = workload.partition(":")
    return base + ("·" + knobs if sep else "")


def _footnote(canvas, frame, skipped):
    if skipped:
        canvas.text(frame.x1, canvas.height - 6,
                    f"{skipped} config(s) n/a*", size=9, anchor="end",
                    fill="#a33")


def _need(rows, fig):
    if not rows:
        raise RenderError(
            f"figure {fig.file}: sweep {fig.sweep!r} produced no "
            "usable rows")


def render_exec_breakdown(fig, all_rows):
    rows, skipped = sweep_rows(all_rows, fig.sweep)
    _need(rows, fig)
    workloads = _unique(r["workload"] for r in rows)
    schemes = _unique(r["scheme"] for r in rows)
    baseline = fig.baseline or schemes[0]
    if baseline not in schemes:
        raise RenderError(f"figure {fig.file}: baseline {baseline!r} "
                          "not among the sweep's schemes")
    by = {(r["workload"], r["scheme"]): r for r in rows}

    canvas = S.Svg(max(560, 120 * len(workloads) + 140), 360)
    title = fig.title or ("Execution-time breakdown "
                          f"(normalized to {baseline})")
    frame = S.Frame(canvas, title, f"% of {baseline} time", bottom=72)

    bars = []   # (workload index, scheme, [segment values])
    ymax = 100.0
    for wi, w in enumerate(workloads):
        base_row = by.get((w, baseline))
        if base_row is None:
            continue
        base = sum(base_row[k] for k, _ in BREAKDOWN_SEGMENTS)
        if base <= 0:
            continue
        for s in schemes:
            row = by.get((w, s))
            if row is None:
                continue
            segs = [100.0 * row[k] / base for k, _ in BREAKDOWN_SEGMENTS]
            ymax = max(ymax, sum(segs))
            bars.append((wi, s, segs))
    frame.set_yrange(0.0, ymax * 1.05)
    frame.draw_y_axis()
    frame.legend([(label, S.BREAKDOWN_COLORS[i])
                  for i, (_k, label) in enumerate(BREAKDOWN_SEGMENTS)])

    centers, width = S.band_positions(frame.x0, frame.x1,
                                      len(workloads))
    bar_w = width / max(1, len(schemes))
    for wi, s, segs in bars:
        si = schemes.index(s)
        x = centers[wi] - width / 2 + si * bar_w
        y = frame.y1
        for i, v in enumerate(segs):
            h = frame.y(0.0) - frame.y(v)
            y -= h
            canvas.rect(x, y, bar_w * 0.92, h, S.BREAKDOWN_COLORS[i],
                        title=(f"{workloads[wi]} {s} "
                               f"{BREAKDOWN_SEGMENTS[i][1]}: "
                               f"{v:.1f}%"))
        canvas.text(x + bar_w * 0.46, frame.y1 + 10, s, size=8,
                    anchor="end", fill="#555", rotate=-45)
    for wi, w in enumerate(workloads):
        canvas.text(centers[wi], frame.y1 + 44, _short(w), size=10,
                    anchor="middle", bold=True)
    _footnote(canvas, frame, skipped)
    return canvas.to_string(desc=f"vcoma_sweep exec_breakdown "
                                 f"sweep={fig.sweep}")


def render_miss_rates(fig, all_rows):
    rows, skipped = sweep_rows(all_rows, fig.sweep)
    _need(rows, fig)
    workloads = _unique(r["workload"] for r in rows)
    schemes = _unique(r["scheme"] for r in rows)
    by = {(r["workload"], r["scheme"]): r for r in rows}

    canvas = S.Svg(max(560, 110 * len(workloads) + 140), 340)
    title = fig.title or "Translation walks per 1k references"
    frame = S.Frame(canvas, title, "walks / 1k refs", bottom=56)
    ymax = max((r["walks_per_1k_refs"] for r in rows), default=1.0)
    frame.set_yrange(0.0, max(ymax, 1e-9) * 1.1)
    frame.draw_y_axis()
    frame.legend([(s, S.PALETTE[i % len(S.PALETTE)])
                  for i, s in enumerate(schemes)])

    centers, width = S.band_positions(frame.x0, frame.x1,
                                      len(workloads))
    bar_w = width / max(1, len(schemes))
    for wi, w in enumerate(workloads):
        for si, s in enumerate(schemes):
            row = by.get((w, s))
            if row is None:
                continue
            v = row["walks_per_1k_refs"]
            x = centers[wi] - width / 2 + si * bar_w
            y = frame.y(v)
            canvas.rect(x, y, bar_w * 0.9, frame.y1 - y,
                        S.PALETTE[si % len(S.PALETTE)],
                        title=f"{w} {s}: {v:.3f} walks/1k refs")
        canvas.text(centers[wi], frame.y1 + 16, _short(w), size=10,
                    anchor="middle")
    _footnote(canvas, frame, skipped)
    return canvas.to_string(desc=f"vcoma_sweep miss_rates "
                                 f"sweep={fig.sweep}")


def render_miss_curves(fig, all_rows):
    rows, skipped = sweep_rows(all_rows, fig.sweep)
    _need(rows, fig)
    xknob = fig.x
    xs = sorted({r[xknob] for r in rows})
    if len(xs) < 2:
        raise RenderError(f"figure {fig.file}: knob {xknob!r} has "
                          f"{len(xs)} value(s); need an axis to plot")
    series_keys = _unique((r["workload"], r["scheme"]) for r in rows)
    by = {(r["workload"], r["scheme"], r[xknob]): r for r in rows}

    canvas = S.Svg(640, 400)
    title = fig.title or f"Translation misses per node vs {xknob}"
    frame = S.Frame(canvas, title, "misses / node", bottom=52)
    xpos = {v: math.log2(v) if v > 0 else 0.0 for v in xs}
    lo, hi = xpos[xs[0]], xpos[xs[-1]]
    span = (hi - lo) or 1.0

    def X(v):
        return frame.x0 + (xpos[v] - lo) / span * (frame.x1 - frame.x0)

    ymax = max((r["misses_per_node"] for r in rows), default=1.0)
    frame.set_yrange(0.0, max(ymax, 1e-9) * 1.08)
    frame.draw_y_axis()
    for v in xs:
        canvas.line(X(v), frame.y1, X(v), frame.y1 + 4, "#222222")
        canvas.text(X(v), frame.y1 + 16, S.tick_label(float(v)),
                    size=10, anchor="middle", fill="#444")
    canvas.text((frame.x0 + frame.x1) / 2, frame.y1 + 34, xknob,
                size=11, anchor="middle", fill="#444")

    legend = []
    for i, (w, s) in enumerate(series_keys):
        color = S.PALETTE[i % len(S.PALETTE)]
        pts = [(X(v), frame.y(by[(w, s, v)]["misses_per_node"]))
               for v in xs if (w, s, v) in by]
        if not pts:
            continue
        canvas.polyline(pts, color, width=1.8,
                        title=f"{w} {s}")
        for p in pts:
            canvas.circle(p[0], p[1], 2.4, color)
        legend.append((f"{_short(w)} {s}", color))
    frame.legend(legend)
    _footnote(canvas, frame, skipped)
    return canvas.to_string(desc=f"vcoma_sweep miss_curves "
                                 f"sweep={fig.sweep} x={xknob}")


def render_pressure(fig, all_rows):
    rows, skipped = sweep_rows(all_rows, fig.sweep)
    _need(rows, fig)
    scheme = fig.scheme or "V-COMA"
    rows = [r for r in rows if r["scheme"] == scheme]
    if not rows:
        raise RenderError(f"figure {fig.file}: no rows under scheme "
                          f"{scheme!r}")
    workloads = _unique(r["workload"] for r in rows)
    by = {r["workload"]: r for r in rows}

    canvas = S.Svg(640, 400)
    title = fig.title or f"Memory-pressure profile ({scheme})"
    frame = S.Frame(canvas, title, "relative pressure", bottom=52)
    ymax = 0.0
    for r in rows:
        profile = r.get("pressure_profile") or []
        if profile:
            ymax = max(ymax, max(profile))
    frame.set_yrange(0.0, max(ymax, 1e-9) * 1.08)
    frame.draw_y_axis()
    canvas.text((frame.x0 + frame.x1) / 2, frame.y1 + 30,
                "global page set (sorted rank)", size=11,
                anchor="middle", fill="#444")

    legend = []
    for i, w in enumerate(workloads):
        profile = by[w].get("pressure_profile") or []
        if not profile:
            continue
        color = S.PALETTE[i % len(S.PALETTE)]
        n = len(profile)
        pts = [(frame.x0 + (frame.x1 - frame.x0) * (j / max(1, n - 1)),
                frame.y(v))
               for j, v in enumerate(profile)]
        canvas.polyline(pts, color, width=1.5, title=_short(w))
        legend.append((_short(w), color))
    frame.legend(legend)
    _footnote(canvas, frame, skipped)
    return canvas.to_string(desc=f"vcoma_sweep pressure "
                                 f"sweep={fig.sweep} scheme={scheme}")


RENDERERS = {
    "exec_breakdown": render_exec_breakdown,
    "miss_rates": render_miss_rates,
    "miss_curves": render_miss_curves,
    "pressure": render_pressure,
}


def render_figure(fig, rows):
    """One output declaration -> SVG or Markdown text."""
    if fig.is_table:
        return render_table(fig, rows)
    return RENDERERS[fig.type](fig, rows)


def render_figures(spec, rows, out_dir, log=None):
    """Render every declared output into @out_dir; returns paths."""
    say = log or (lambda _msg: None)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for fig in spec.figures:
        text = render_figure(fig, rows)
        path = os.path.join(out_dir, fig.file)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        say(f"wrote {path} ({len(text)} bytes)")
        paths.append(path)
    return paths
