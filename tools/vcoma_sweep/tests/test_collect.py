"""Collector: positional join against a real --jsonl fixture."""

import json
import os
import tempfile
import unittest

from vcoma_sweep import collect as C
from vcoma_sweep import spec as M
from vcoma_sweep.submit import SubmitResult

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "smoke_results.jsonl")

#: the spec whose expansion produced the committed fixture (see the
#: fixture's provenance in tests/__init__.py).
FIXTURE_SPEC = {
    "name": "fixture",
    "defaults": {"scale": 0.05, "nodes": 8},
    "sweeps": [{"id": "s",
                "workloads": ["UNIFORM", "STRIDE"],
                "schemes": ["L0", "VCOMA"]}],
}


def fixture_configs():
    return M.Spec(FIXTURE_SPEC).expand()


def fixture_lines():
    with open(FIXTURE, "r", encoding="utf-8") as f:
        return [ln for ln in (raw.strip() for raw in f) if ln]


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


class CollectFixtureTest(unittest.TestCase):
    def test_join_produces_one_row_per_config(self):
        rows = C.collect_jsonl(fixture_configs(), FIXTURE)
        self.assertEqual(len(rows), 4)
        self.assertEqual([(r["workload"], r["scheme"]) for r in rows],
                         [("UNIFORM", "L0-TLB"), ("UNIFORM", "V-COMA"),
                          ("STRIDE", "L0-TLB"), ("STRIDE", "V-COMA")])

    def test_derived_metrics(self):
        rows = C.collect_jsonl(fixture_configs(), FIXTURE)
        for r in rows:
            self.assertNotIn("error", r)
            self.assertEqual(r["num_nodes"], 8)
            self.assertGreater(r["refs"], 0)
            self.assertGreaterEqual(r["tlb_accesses"], r["tlb_misses"])
            self.assertAlmostEqual(
                r["walks_per_1k_refs"],
                1000.0 * r["tlb_misses"] / r["refs"])
            self.assertAlmostEqual(
                r["misses_per_node"], r["tlb_misses"] / 8)
            self.assertEqual(len(r["pressure_profile"]), 256)
            self.assertIn("key", r)
            self.assertEqual(r["entries"], 8)   # knob provenance

    def test_submit_result_provenance_attached(self):
        cfgs = fixture_configs()
        sr = SubmitResult()
        sr.cached[cfgs[0].key()] = True
        sr.wall_ms[cfgs[0].key()] = 12.5
        rows = C.collect_jsonl(cfgs, FIXTURE, submit_result=sr)
        self.assertTrue(rows[0]["cached"])
        self.assertEqual(rows[0]["wall_ms"], 12.5)
        self.assertIsNone(rows[1]["cached"])

    def test_line_count_mismatch_rejected(self):
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "r.jsonl")
            write_lines(p, fixture_lines()[:3])
            with self.assertRaisesRegex(C.CollectError, "3 record"):
                C.collect_jsonl(fixture_configs(), p)

    def test_reordered_file_rejected(self):
        lines = fixture_lines()
        lines[0], lines[2] = lines[2], lines[0]   # UNIFORM <-> STRIDE
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "r.jsonl")
            write_lines(p, lines)
            with self.assertRaisesRegex(C.CollectError,
                                        "does not line up"):
                C.collect_jsonl(fixture_configs(), p)

    def test_scheme_mismatch_rejected(self):
        lines = fixture_lines()
        lines[1] = lines[1].replace('"scheme":"V-COMA"',
                                    '"scheme":"NMT"', 1)
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "r.jsonl")
            write_lines(p, lines)
            with self.assertRaisesRegex(C.CollectError, "scheme"):
                C.collect_jsonl(fixture_configs(), p)

    def test_failure_placeholder_becomes_error_row(self):
        cfgs = fixture_configs()
        lines = fixture_lines()
        lines[3] = json.dumps({"schema": 1, "key": cfgs[3].key(),
                               "error": "boom"})
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "r.jsonl")
            write_lines(p, lines)
            rows = C.collect_jsonl(cfgs, p)
            self.assertEqual(rows[3]["error"], "boom")
            good, skipped = C.sweep_rows(rows, "s")
            self.assertEqual((len(good), skipped), (3, 1))

    def test_failure_placeholder_with_wrong_key_rejected(self):
        lines = fixture_lines()
        lines[3] = json.dumps({"schema": 1, "key": "SOMETHING-ELSE",
                               "error": "boom"})
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "r.jsonl")
            write_lines(p, lines)
            with self.assertRaisesRegex(C.CollectError,
                                        "does not line up"):
                C.collect_jsonl(fixture_configs(), p)

    def test_victima_walks_exclude_spill_hits(self):
        """VICTIMA's spill probe rescues TLB misses from the walk
        (arXiv:2310.04158): only misses that miss the spill too are
        walks."""
        rec = json.loads(fixture_lines()[0])   # UNIFORM under L0-TLB
        rec["scheme"] = "VICTIMA"
        misses = rec["tlb"]["misses"]
        rec["tlbSpill"] = {"probes": misses, "hits": misses - 7,
                           "fills": misses}
        [cfg] = M.Spec({"name": "v", "defaults": {"scale": 0.05,
                                                  "nodes": 8},
                        "sweeps": [{"workloads": ["UNIFORM"],
                                    "schemes": ["VICTIMA"]}]}).expand()
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "r.jsonl")
            write_lines(p, [json.dumps(rec)])
            [row] = C.collect_jsonl([cfg], p)
        self.assertEqual(row["tlb_misses"], misses)
        self.assertEqual((row["spill_probes"], row["spill_hits"]),
                         (misses, misses - 7))
        self.assertAlmostEqual(row["walks_per_1k_refs"],
                               1000.0 * 7 / row["refs"])
        # Without the key (every other scheme) no miss is rescued.
        [l0] = C.collect_jsonl(fixture_configs(), FIXTURE)[:1]
        self.assertEqual(l0["spill_hits"], 0)

    def test_table_columns_kept(self):
        rows = C.collect_jsonl(fixture_configs(), FIXTURE)
        for r in rows:
            self.assertEqual(len(r["shadow"]), 14)
            self.assertTrue(r["parameters"])
            self.assertGreater(r["shared_bytes"], 0)
            for k in ("injections", "injection_hops", "shared_drops",
                      "swap_outs", "remote_reads", "dlb_filtered_refs",
                      "dlb_shared_hits"):
                self.assertGreaterEqual(r[k], 0, k)
        vcoma = rows[1]
        self.assertEqual(vcoma["dlb_filtered_refs"]
                         + vcoma["tlb_accesses"], vcoma["refs"])

    def test_nonfinite_json_rejected(self):
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "r.jsonl")
            write_lines(p, ['{"a": NaN}'] * 4)
            with self.assertRaisesRegex(C.CollectError, "strict JSON"):
                C.collect_jsonl(fixture_configs(), p)


class ResultsRoundTripTest(unittest.TestCase):
    def test_write_read_round_trip(self):
        rows = C.collect_jsonl(fixture_configs(), FIXTURE)
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "results.json")
            C.write_results(rows, p, "fixture")
            doc = C.read_results(p)
        self.assertEqual(doc["spec"], "fixture")
        self.assertEqual(doc["rows"], json.loads(json.dumps(rows)))

    def test_read_rejects_foreign_json(self):
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "x.json")
            with open(p, "w", encoding="utf-8") as f:
                json.dump({"rows": 3}, f)
            with self.assertRaisesRegex(C.CollectError,
                                        "results table"):
                C.read_results(p)


if __name__ == "__main__":
    unittest.main()
