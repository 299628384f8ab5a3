"""Markdown tables: each type's cells from synthetic sheets."""

import copy
import json
import random
import re
import unittest

from vcoma_sweep import render as R
from vcoma_sweep import spec as M
from vcoma_sweep import tables as T

from .records import make_spec, rows_for

PAPER = ["RADIX", "FFT", "FMM", "RAYTRACE", "BARNES", "OCEAN"]
LEGACY = ["L0", "L1", "L2", "L3", "VCOMA"]


def parse(text):
    """Markdown -> [(title, header, rows)]."""
    tables = []
    for block in text.split("### ")[1:]:
        lines = block.splitlines()
        cells = [[c.replace("\\|", "|")
                  for c in re.split(r" (?<!\\)\| ", ln[2:-2])]
                 for ln in lines if ln.startswith("| ")]
        tables.append((lines[0], cells[0], cells[1:]))
    return tables


def render(spec, rows, index=0):
    return parse(R.render_figure(spec.figures[index], rows))


def cell(table, row_key, column):
    _title, header, rows = table
    row = next(r for r in rows if r[0] == row_key)
    return row[header.index(column)]


class MissStudyTablesTest(unittest.TestCase):
    def setUp(self):
        self.spec = make_spec(
            [{"id": "m", "workloads": PAPER, "schemes": LEGACY}],
            [{"file": "t1.md", "type": "benchmarks", "sweep": "m"},
             {"file": "t2.md", "type": "miss_rate_pct", "sweep": "m"},
             {"file": "t3.md", "type": "equivalent_size", "sweep": "m"},
             {"file": "f8.md", "type": "shadow_curves", "sweep": "m"},
             {"file": "f9.md", "type": "direct_mapped", "sweep": "m"}])
        self.rows = rows_for(self.spec)

    def test_table1_lists_all_benchmarks(self):
        [(title, header, rows)] = render(self.spec, self.rows, 0)
        self.assertEqual(title, "Table 1: Benchmarks (scale=0.10)")
        self.assertEqual(header, ["Benchmark", "Parameters",
                                  "Shared Memory (MB)"])
        self.assertEqual([r[0] for r in rows], PAPER)
        self.assertEqual(rows[0][1:], ["-p RADIX", "3.00"])

    def test_table2_rates_and_precision(self):
        [t] = render(self.spec, self.rows, 1)
        # 1000 misses / 1e5 refs; the write-back stream counts for L2.
        self.assertEqual(cell(t, "RADIX", "L0-TLB/8"), "1.00")
        self.assertEqual(cell(t, "RADIX", "L2-TLB/8"), "0.70")
        self.assertEqual(cell(t, "FFT", "L0-TLB/32"), "0.25")
        # Home-side structures get four decimals.
        self.assertEqual(cell(t, "OCEAN", "V-COMA/8"), "0.0120")

    def test_table3_interpolates_and_caps(self):
        [t] = render(self.spec, self.rows, 2)
        # The DLB's 12 misses over 32 nodes are never matched: every
        # TLB reads past the largest size.
        self.assertEqual(t[1], ["Benchmark", "L0-TLB", "L1-TLB",
                                "L2-TLB", "L3-TLB", "DLB/8 misses/node"])
        self.assertEqual(cell(t, "RADIX", "L0-TLB"), ">512")
        self.assertEqual(cell(t, "RADIX", "DLB/8 misses/node"), "0")

    def test_equivalent_size_log_interpolation(self):
        row = self.rows[0]
        nodes = row["num_nodes"]
        # L0: 1000/nodes at 8, 500/nodes at 16: halfway in log space.
        target = (1000 * 500) ** 0.5 / nodes
        self.assertAlmostEqual(T.equivalent_size(row, False, target),
                               12.0, places=6)
        self.assertEqual(T.equivalent_size(row, False, 1e9), 8.0)
        self.assertEqual(T.equivalent_size(row, False, 0.0), -1.0)

    def test_fig8_has_l2_no_wback_after_l2(self):
        tables = render(self.spec, self.rows, 3)
        self.assertEqual([t[0] for t in tables],
                         [f"Figure 8 ({w}): translation misses per node "
                          "vs TLB/DLB size" for w in PAPER])
        title, header, rows = tables[0]
        self.assertEqual(header, ["size", "L0-TLB", "L1-TLB", "L2-TLB",
                                  "L2/no_wback", "L3-TLB", "V-COMA"])
        self.assertEqual([r[0] for r in rows],
                         [str(s) for s in (8, 16, 32, 64, 128, 256, 512)])
        # 600 + 100 write-back misses over 32 nodes, and without them.
        self.assertEqual(rows[0][3:5], ["22", "19"])

    def test_fig9_direct_mapped_before_fully_associative(self):
        title, header, rows = render(self.spec, self.rows, 4)[0]
        self.assertEqual(header[1:3], ["L0-TLB/DM", "L0-TLB"])
        self.assertEqual(rows[0][1:3], ["34", "31"])   # 1100 vs 1000

    def test_failed_config_reads_na_and_is_footnoted(self):
        rows = rows_for(self.spec, lambda cfg, _rec: not (
            cfg.workload == "FFT" and cfg.scheme == "L1-TLB"))
        text = R.render_figure(self.spec.figures[1], rows)
        t = parse(text)[0]
        self.assertEqual(cell(t, "FFT", "L1-TLB/8"), "n/a*")
        self.assertEqual(cell(t, "FFT", "L0-TLB/8"), "1.00")
        self.assertEqual(text.count("failed to simulate"), 1)

    def test_missing_scheme_rejected(self):
        rows = [r for r in self.rows if r["scheme"] != "V-COMA"]
        with self.assertRaisesRegex(R.RenderError, "scheme=V-COMA"):
            R.render_figure(self.spec.figures[2], rows)


class TimedTablesTest(unittest.TestCase):
    def test_table4_rows_by_size_then_scheme(self):
        spec = make_spec(
            [{"id": "t4", "workloads": ["RADIX", "FFT"],
              "schemes": ["VCOMA", "L0"],
              "knobs": {"timed": True, "entries": [16, 8]}}],
            [{"file": "t4.md", "type": "stall_share", "sweep": "t4"}])
        [(_title, header, rows)] = render(spec, rows_for(spec))
        self.assertEqual(header, ["Config", "RADIX", "FFT"])
        self.assertEqual([r[0] for r in rows],
                         ["L0-TLB/8", "DLB/8", "L0-TLB/16", "DLB/16"])
        self.assertEqual(rows[1][1:], ["1.00", "1.00"])

    def test_fig10_averages_seeds_and_labels_variants(self):
        spec = make_spec(
            [{"id": "a", "workloads": ["RAYTRACE"],
              "schemes": ["L0", "VCOMA"],
              "knobs": {"timed": True, "assoc": [0, 1]}},
             {"id": "b", "workloads": ["RAYTRACE"], "schemes": ["VCOMA"],
              "knobs": {"timed": True, "raytrace_v2": True,
                        "seed": [1, 2]}}],
            [{"file": "f10.md", "type": "exec_time",
              "sweep": ["a", "b"]}])

        def patch(cfg, rec):
            # The V2 runs' remote stall differs by seed: 400 and 600.
            if cfg.knobs["raytrace_v2"]:
                rec["totals"]["remStall"] = 200 * (cfg.knobs["seed"] + 1)
        [(title, _header, rows)] = render(spec, rows_for(spec, patch))
        self.assertEqual(title, "Figure 10 (RAYTRACE): execution time "
                                "breakdown (% of TLB/8 total)")
        self.assertEqual([r[0] for r in rows],
                         ["TLB/8", "TLB/8/DM", "DLB/8", "DLB/8/DM",
                          "DLB/8/V2"])
        # 1000 + 200 + 300 + 400 + 70 cycles.
        self.assertEqual(rows[0][1:], ["50.8", "10.2", "15.2", "20.3",
                                       "3.6", "100.0"])
        # V2: remote stall averages to 500 over the two seeds.
        self.assertEqual(rows[4][4], "25.4")

    def test_walks_subtract_spill_hits(self):
        spec = make_spec(
            [{"id": "w", "workloads": ["RADIX"],
              "schemes": ["NMT", "VICTIMA", "L0"]}],
            [{"file": "w.md", "type": "walks", "sweep": "w"}])
        [(_t, header, rows)] = render(spec, rows_for(spec))
        self.assertEqual(header, ["Benchmark", "L0-TLB", "VICTIMA", "NMT",
                                  "VICTIMA spill hit%"])
        # 500 misses - 450 spill hits over 1e5 references.
        self.assertEqual(rows[0][1:], ["5.000", "0.500", "5.000",
                                       "90.0"])


class AblationTablesTest(unittest.TestCase):
    def test_tag_overhead_matches_paper_numbers(self):
        # Section 6: 2-3 extra tag bytes => 1.5%-2.5% of AM for 128 B
        # blocks, 3%-4.5% for 64 B, 6%-9% for 32 B.
        spec = make_spec(
            [{"id": "s", "workloads": ["RADIX"], "schemes": ["L0"]}],
            [{"file": "tag.md", "type": "tag_overhead"}])
        [(title, header, rows)] = render(spec, [])
        self.assertTrue(title.startswith("Section 6"))
        self.assertEqual(header, ["block size (B)", "extra tag 2B (%)",
                                  "extra tag 3B (%)"])
        self.assertEqual(rows, [["32", "6.25", "9.38"],
                                ["64", "3.12", "4.69"],
                                ["128", "1.56", "2.34"]])

    def test_knob_sweep_labels_from_inline_knobs(self):
        spec = make_spec(
            [{"id": "kv", "workloads": ["KVLOOKUP:skew=0.20,read=0.50",
                                        "KVLOOKUP:skew=1.30,read=0.95"],
              "schemes": ["L0", "VCOMA"]}],
            [{"file": "kv.md", "type": "knob_sweep", "sweep": "kv"}])
        [(_t, header, rows)] = render(spec, rows_for(spec))
        self.assertEqual(header, ["skew/read", "L0-TLB miss%",
                                  "DLB miss%", "DLB filtered%",
                                  "DLB shared hits", "remote reads"])
        self.assertEqual(rows[1], ["1.30/0.95", "1.00", "0.0120", "60.0",
                                   "12", "300"])

    def test_software_tlb_reads_two_sweeps(self):
        spec = make_spec(
            [{"id": "sw", "workloads": ["FFT"], "schemes": ["L2"],
              "knobs": {"timed": True, "entries": 0,
                        "xlat_penalty": 200}},
             {"id": "hw", "workloads": ["FFT"], "schemes": ["L2"],
              "knobs": {"timed": True, "entries": [8, 32]}}],
            [{"file": "sw.md", "type": "software_tlb",
              "sweep": ["sw", "hw"]}])
        [(title, _h, rows)] = render(spec, rows_for(spec))
        self.assertIn("trap cost 200 cycles", title)
        self.assertEqual(rows, [["FFT", "5.0", "0.00", "0.00", "1.000"]])

    def test_sweep_axis_tables(self):
        spec = make_spec(
            [{"id": "n", "workloads": ["RADIX"], "schemes": ["VCOMA", "L3"],
              "knobs": {"nodes": [8, 16]}},
             {"id": "k", "workloads": ["RAYTRACE"], "schemes": ["VCOMA"],
              "knobs": {"timed": True, "am_assoc": [1, 2]}},
             {"id": "p", "workloads": ["RADIX"], "schemes": ["L0", "VCOMA"],
              "knobs": {"timed": True, "xlat_penalty": [20, 160]}},
             {"id": "l", "workloads": ["UNIFORM", "HOTSPOT"],
              "schemes": ["VCOMA"]}],
            [{"file": "n.md", "type": "dlb_scaling", "sweep": "n"},
             {"file": "k.md", "type": "am_assoc", "sweep": "k"},
             {"file": "p.md", "type": "xlat_cost", "sweep": "p"},
             {"file": "l.md", "type": "layout", "sweep": "l"},
             {"file": "i.md", "type": "injection", "sweep": "l"},
             {"file": "g.md", "type": "pressure_groups", "sweep": "l"}])
        rows = rows_for(spec)
        [(_t, header, body)] = render(spec, rows, 0)
        self.assertEqual(header, ["nodes", "L3-TLB/8 miss rate (%)",
                                  "DLB/8 miss rate (%)"])
        self.assertEqual(body, [["8", "0.5500", "0.0120"],
                                ["16", "0.5500", "0.0120"]])
        [(_t, _h, body)] = render(spec, rows, 1)
        self.assertEqual(body[1], ["2", "64", "2001000", "4", "1",
                                   "0.0300"])
        [(_t, header, body)] = render(spec, rows, 2)
        self.assertEqual(header, ["miss service (cycles)", "L0-TLB/8",
                                  "V-COMA DLB/8"])
        self.assertEqual(body[1], ["160", "2.00", "2.00"])
        [(_t, _h, body)] = render(spec, rows, 3)
        self.assertEqual(body[0], ["UNIFORM", "0.0150", "0.0300", "2.0",
                                   "0"])
        [(_t, _h, body)] = render(spec, rows, 4)
        self.assertEqual(body[1], ["HOTSPOT", "4", "6", "1.50", "1", "0"])
        groups = render(spec, rows, 5)
        self.assertEqual(len(groups), 2)
        self.assertEqual(groups[0][2][0], ["0-3", "0.0150", "0.0300"])
        self.assertEqual(groups[0][2][-1], ["ALL", "0.0150", "0.0300"])
        self.assertEqual(len(groups[0][2]), 17)


class PermutedSpecTest(unittest.TestCase):
    """The stock specs' tables render, with the same cells, when the
    spec lists its sweeps, workloads and schemes in another order
    (the perf benchmark runs paper_grid seed-permuted)."""

    def permuted(self, obj, seed):
        obj = copy.deepcopy(obj)
        rng = random.Random(seed)
        rng.shuffle(obj["sweeps"])
        for sweep in obj["sweeps"]:
            rng.shuffle(sweep["workloads"])
            rng.shuffle(sweep["schemes"])
        return obj

    def cells(self, spec):
        out = {}
        rows = rows_for(spec)
        for fig in spec.figures:
            if not fig.is_table:
                continue
            for title, header, body in parse(R.render_figure(fig, rows)):
                for r in body:
                    for h, c in zip(header[1:], r[1:]):
                        out[(title, r[0], h)] = c
        return out

    def test_stock_spec_tables_survive_permutation(self):
        for name in ("paper_grid.json", "paper_ablations.json",
                     "modern_showdown.json"):
            with open(M._package_spec_path(name), encoding="utf-8") as f:
                obj = json.load(f)
            want = self.cells(M.Spec(obj))
            self.assertTrue(want, name)
            for seed in (1, 2, 3):
                got = self.cells(M.Spec(self.permuted(obj, seed)))
                self.assertEqual(got, want, f"{name} seed {seed}")


if __name__ == "__main__":
    unittest.main()
