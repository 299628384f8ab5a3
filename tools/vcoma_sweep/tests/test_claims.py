"""check-claims: each claim passes on sound sheets and fails, with a
non-zero exit, on a fixture that breaks it."""

import contextlib
import io
import json
import os
import tempfile
import unittest

from vcoma_sweep.__main__ import main as cli_main

from .records import shadow, write_jsonl

SPEC = {
    "name": "claims",
    "defaults": {"scale": 0.1, "nodes": 32},
    "sweeps": [
        {"id": "miss", "workloads": ["RADIX", "OCEAN"],
         "schemes": ["L0", "L1", "L2", "L3", "VCOMA"]},
        {"id": "timed", "workloads": ["RADIX"],
         "schemes": ["L0", "VCOMA"], "knobs": {"timed": True}},
    ],
}


def run(spec_obj, patch=None):
    """check-claims on @spec_obj's records -> (exit code, stdout)."""
    out = io.StringIO()
    code = 0
    with tempfile.TemporaryDirectory() as d:
        spec_path = os.path.join(d, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as f:
            json.dump(spec_obj, f)
        jsonl = os.path.join(d, "results.jsonl")
        write_jsonl(jsonl, spec_obj, patch)
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                cli_main(["check-claims", spec_path, "--jsonl", jsonl])
            except SystemExit as e:
                code = e.code or 0
    return code, out.getvalue()


def on(workload, scheme, **fields):
    """A patch that overrides one untimed sheet's fields."""
    def patch(cfg, rec):
        if (cfg.workload == workload and cfg.scheme == scheme
                and not cfg.knobs["timed"]):
            rec.update(fields)
    return patch


class ClaimsTest(unittest.TestCase):
    def assert_fails(self, claim, patch):
        code, out = run(SPEC, patch)
        self.assertEqual(code, 1, out)
        self.assertIn(f"{claim}: fail", out)
        return out

    def test_sound_sheets_pass_every_claim(self):
        code, out = run(SPEC)
        self.assertEqual(code, 0, out)
        for claim in ("miss_ordering", "l2_writebacks", "dlb_below_tlb",
                      "dlb_filtering"):
            self.assertIn(f"{claim}: pass", out)
        # Every V-COMA sheet, timed or not, is checked for filtering.
        self.assertIn("dlb_filtering: pass (3 checked)", out)

    def test_miss_ordering_broken(self):
        # L2/no_wback above L1 on OCEAN.
        out = self.assert_fails("miss_ordering",
                                on("OCEAN", "L2-TLB", shadow=shadow(900)))
        self.assertIn("OCEAN:", out)

    def test_miss_ordering_ignores_l2_writebacks(self):
        # L2 with write-backs may rise above L1 (OCEAN at 8 entries).
        code, out = run(SPEC, on("OCEAN", "L2-TLB",
                                 shadow=shadow(700, 400)))
        self.assertEqual(code, 0, out)

    def test_l2_writebacks_broken(self):
        self.assert_fails("l2_writebacks",
                          on("RADIX", "L2-TLB", shadow=shadow(600, 0)))

    def test_dlb_below_tlb_broken(self):
        self.assert_fails("dlb_below_tlb",
                          on("RADIX", "V-COMA", shadow=shadow(540, 20)))

    def test_dlb_filtering_broken(self):
        self.assert_fails("dlb_filtering",
                          on("OCEAN", "V-COMA",
                             dlb={"filteredRefs": 1, "sharedHits": 0}))

    def test_absent_schemes_are_skipped_not_passed(self):
        spec = dict(SPEC, sweeps=[{"id": "s", "workloads": ["FFT"],
                                   "schemes": ["L0"]}])
        code, out = run(spec)
        self.assertEqual(code, 0, out)
        for claim in ("miss_ordering", "l2_writebacks", "dlb_below_tlb",
                      "dlb_filtering"):
            self.assertIn(f"{claim}: skipped", out)
        self.assertNotIn("pass", out)

    def test_stale_jsonl_is_an_error(self):
        def patch(cfg, rec):
            rec["scheme"] = "L0-TLB"
        code, _out = run(SPEC, patch)
        self.assertEqual(code, 1)


if __name__ == "__main__":
    unittest.main()
