"""The folded-in CI checkers, exercised through their main()s."""

import contextlib
import io
import json
import os
import tempfile
import unittest

from vcoma_sweep.checks import doc as check_doc
from vcoma_sweep.checks import stats as check_stats

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "smoke_results.jsonl")


def run_main(argv):
    """Run check_stats.main, capturing (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            check_stats.main(argv)
        except SystemExit as e:
            code = e.code or 0
    return code, out.getvalue(), err.getvalue()


class StatsCheckTest(unittest.TestCase):
    def test_fixture_passes(self):
        code, out, err = run_main([FIXTURE, "--require-vcoma"])
        self.assertEqual(code, 0, err)
        self.assertIn("4 stats line(s) OK", out)

    def test_tampered_totals_fail(self):
        with open(FIXTURE, "r", encoding="utf-8") as f:
            line = f.readline()
        obj = json.loads(line)
        obj["totals"]["refs"] += 1
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "s.jsonl")
            with open(p, "w", encoding="utf-8") as f:
                f.write(json.dumps(obj) + "\n")
            code, _out, err = run_main([p])
        self.assertEqual(code, 1)
        self.assertIn("totals.refs", err)

    def fixture_line(self, scheme):
        with open(FIXTURE, "r", encoding="utf-8") as f:
            for line in f:
                obj = json.loads(line)
                if obj["scheme"] == scheme:
                    return obj
        self.fail(f"no {scheme} line in the fixture")

    def check_one(self, obj):
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "s.jsonl")
            with open(p, "w", encoding="utf-8") as f:
                f.write(json.dumps(obj) + "\n")
            return run_main([p])

    def nmt_line(self):
        """The V-COMA fixture line as an NMT sheet of the same run."""
        obj = self.fixture_line("V-COMA")
        obj["scheme"] = "NMT"
        for block in (obj["tlb"], obj["dlb"]):
            for key, value in block.items():
                block[key] = ({k: 0 for k in value}
                              if isinstance(value, dict) else 0)
        obj["latency"]["dlbFill"] = {k: 0 for k in
                                     obj["latency"]["dlbFill"]}
        return obj

    def test_ownership_passes_a_clean_nmt_sheet(self):
        code, _out, err = self.check_one(self.nmt_line())
        self.assertEqual(code, 0, err)

    def test_leaked_dlb_counters_fail(self):
        # An L0 sheet may carry no DLB evidence at all.
        obj = self.fixture_line("L0-TLB")
        obj["dlb"]["prefetchedFills"] = 1
        code, _out, err = self.check_one(obj)
        self.assertEqual(code, 1)
        self.assertIn("L0-TLB sheet carries DLB counters", err)

        obj = self.nmt_line()
        obj["latency"]["dlbFill"]["count"] = 3
        code, _out, err = self.check_one(obj)
        self.assertEqual(code, 1)
        self.assertIn("NMT sheet carries DLB fills", err)

    def test_leaked_tlb_counters_fail_for_nmt(self):
        obj = self.nmt_line()
        obj["tlb"]["writebackAccesses"] = 7
        code, _out, err = self.check_one(obj)
        self.assertEqual(code, 1)
        self.assertIn("NMT sheet carries TLB counters", err)

    def test_empty_file_fails(self):
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "s.jsonl")
            open(p, "w").close()
            code, _out, err = run_main([p])
        self.assertEqual(code, 1)
        self.assertIn("no JSONL lines", err)


class BenchCheckTest(unittest.TestCase):
    def bench_doc(self, **over):
        doc = {"bench": "x", "schema": 2, "git": "abc",
               "wall_ms": 1.0, "executed": 0, "failures": 0}
        doc.update(over)
        return doc

    def check(self, doc):
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "BENCH_x.json")
            with open(p, "w", encoding="utf-8") as f:
                json.dump({k: v for k, v in doc.items()
                           if v is not None}, f)
            return run_main([FIXTURE, "--bench-glob", p])

    def test_schema2_with_git_passes(self):
        code, out, _err = self.check(self.bench_doc())
        self.assertEqual(code, 0)
        self.assertIn("bench report(s) OK", out)

    def test_schema1_without_git_still_accepted(self):
        # pre-stamp reports remain valid here; the dashboard is the
        # layer that refuses them.
        code, _out, _err = self.check(
            self.bench_doc(schema=1, git=None))
        self.assertEqual(code, 0)

    def test_schema2_without_git_fails(self):
        code, _out, err = self.check(self.bench_doc(git=None))
        self.assertEqual(code, 1)
        self.assertIn("git stamp", err)


RENDERED = """### Table 9: things

| a | b |
|---|---|
| 1 | 2 |
"""


class DocCheckTest(unittest.TestCase):
    def doc(self, rows="| 1 | 2 |", title="Table 9: things"):
        return (f"# Notes\n\nProse.\n\n### {title}\n\n"
                f"| a | b |\n|---|---|\n{rows}\n\nMore prose.\n"
                "### Elsewhere\n\n| x |\n")

    def test_matching_paste_passes(self):
        self.assertEqual(check_doc.check_doc(self.doc(), [RENDERED]),
                         (1, []))

    def test_drifted_row_fails_with_a_diff(self):
        compared, problems = check_doc.check_doc(
            self.doc(rows="| 1 | 3 |"), [RENDERED])
        self.assertEqual(compared, 1)
        self.assertEqual(len(problems), 1)
        self.assertIn("-| 1 | 3 |", problems[0])
        self.assertIn("+| 1 | 2 |", problems[0])

    def test_nothing_compared_fails(self):
        compared, problems = check_doc.check_doc(
            self.doc(title="Table 9 (scale 4): things"), [RENDERED])
        self.assertEqual(compared, 0)
        self.assertEqual(len(problems), 1)

    def test_title_rendered_twice_fails(self):
        _compared, problems = check_doc.check_doc(
            self.doc(), [RENDERED, RENDERED])
        self.assertIn("rendered twice", problems[0])

    def test_main_exits_1_on_drift(self):
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "t.md"), "w") as f:
                f.write(RENDERED)
            doc = os.path.join(d, "DOC.txt")
            with open(doc, "w") as f:
                f.write(self.doc(rows="| 9 | 9 |"))
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    self.assertRaises(SystemExit) as e:
                check_doc.main([doc, d])
            self.assertEqual(e.exception.code, 1)
            self.assertIn("1 table(s) compared, 1 problem(s)",
                          out.getvalue())


if __name__ == "__main__":
    unittest.main()
