"""Spec grammar: expansion, overrides, rejection, key mirroring."""

import copy
import json
import math
import os
import random
import tempfile
import unittest

from vcoma_sweep import spec as M


def make_spec(**kw):
    obj = {
        "name": "t",
        "sweeps": [{"id": "s", "workloads": ["RADIX"],
                    "schemes": ["L0"]}],
    }
    obj.update(kw)
    return M.Spec(obj)


class CanonicalTest(unittest.TestCase):
    def test_scheme_aliases(self):
        self.assertEqual(M.canonical_scheme("L0"), "L0-TLB")
        self.assertEqual(M.canonical_scheme("l0-tlb"), "L0-TLB")
        self.assertEqual(M.canonical_scheme("DLB"), "V-COMA")
        self.assertEqual(M.canonical_scheme("vcoma"), "V-COMA")
        self.assertEqual(M.canonical_scheme("victima-tlb"), "VICTIMA")
        self.assertEqual(M.canonical_scheme("NMT"), "NMT")

    def test_bad_scheme_rejected(self):
        with self.assertRaisesRegex(M.SpecError, "unknown scheme"):
            M.canonical_scheme("L9")
        with self.assertRaisesRegex(M.SpecError, "string"):
            M.canonical_scheme(7)

    def test_workload_base_names(self):
        self.assertEqual(M.canonical_workload("radix"), "RADIX")
        self.assertEqual(M.canonical_workload("KVLOOKUP"), "KVLOOKUP")

    def test_workload_trace_passthrough(self):
        self.assertEqual(M.canonical_workload("TRACE:/tmp/a.vct"),
                         "TRACE:/tmp/a.vct")
        with self.assertRaisesRegex(M.SpecError, "empty trace path"):
            M.canonical_workload("TRACE:")

    def test_workload_inline_knobs(self):
        self.assertEqual(
            M.canonical_workload("kvlookup:skew=1.2,read=0.9"),
            "KVLOOKUP:skew=1.2,read=0.9")
        with self.assertRaisesRegex(M.SpecError, "inline knobs"):
            M.canonical_workload("RADIX:skew=1.2")
        with self.assertRaisesRegex(M.SpecError, "bad knob"):
            M.canonical_workload("KVLOOKUP:zipf=1.2")
        with self.assertRaisesRegex(M.SpecError, "not a number"):
            M.canonical_workload("KVLOOKUP:skew=hot")

    def test_bad_workload_rejected(self):
        with self.assertRaisesRegex(M.SpecError, "unknown workload"):
            M.canonical_workload("CHOLESKY")


class KeyMirrorTest(unittest.TestCase):
    """Config.key() must be byte-identical to ExperimentConfig::key()
    (the strings below are real sheet-file names from the C++ cache)."""

    def test_default_knobs_key(self):
        cfg = M.Config("s", "RADIX", "V-COMA",
                       {n: d for n, (_t, _f, d) in M.KNOBS.items()})
        self.assertEqual(
            cfg.key(), "RADIX-V-COMA-e8-a0-t0-w1-v2_0-n32-s1-r1-k4-p40")

    def test_scaled_key_uses_6g_floats(self):
        knobs = {n: d for n, (_t, _f, d) in M.KNOBS.items()}
        knobs.update(scale=0.05, nodes=8)
        cfg = M.Config("s", "UNIFORM", "L0-TLB", knobs)
        self.assertEqual(
            cfg.key(),
            "UNIFORM-L0-TLB-e8-a0-t0-w1-v2_0-n8-s0.05-r1-k4-p40")

    def test_sanitize_keeps_safe_chars(self):
        self.assertEqual(M._sanitize_key_component("KVLOOKUP:skew=1.2"),
                         M._sanitize_key_component("KVLOOKUP:skew=1.2"))
        # ':' is unsafe -> '_' plus an FNV suffix; '=' ',' '.' pass.
        got = M._sanitize_key_component("KVLOOKUP:skew=1.2")
        self.assertTrue(got.startswith("KVLOOKUP_skew=1.2-h"))
        self.assertEqual(len(got.rsplit("-h", 1)[1]), 8)

    def test_sanitize_clean_string_untouched(self):
        self.assertEqual(M._sanitize_key_component("RADIX"), "RADIX")

    def test_sanitize_non_ascii_matches_cxx_bytes(self):
        # runner.cc sanitises UTF-8 bytes with the C locale's isalnum:
        # 'é' is two non-alphanumeric bytes, so two '_'. The pinned
        # component is what vcoma_client prints for this workload.
        self.assertEqual(
            M._sanitize_key_component("TRACE:/traces/é.vctrace"),
            "TRACE__traces___.vctrace-h379076b6")

    def test_fmt_double_matches_ostream(self):
        self.assertEqual(M._fmt_double(1.0), "1")
        self.assertEqual(M._fmt_double(0.05), "0.05")
        self.assertEqual(M._fmt_double(0.123456789), "0.123457")


class ExpansionTest(unittest.TestCase):
    def test_cross_product_order(self):
        s = make_spec(sweeps=[{
            "id": "s", "workloads": ["RADIX", "FFT"],
            "schemes": ["L0", "VCOMA"],
            "knobs": {"entries": [8, 32]},
        }])
        cfgs = s.expand()
        self.assertEqual(len(cfgs), 8)
        # axis combos outermost; workloads outer, schemes inner.
        self.assertEqual(
            [(c.knobs["entries"], c.workload, c.scheme) for c in cfgs],
            [(8, "RADIX", "L0-TLB"), (8, "RADIX", "V-COMA"),
             (8, "FFT", "L0-TLB"), (8, "FFT", "V-COMA"),
             (32, "RADIX", "L0-TLB"), (32, "RADIX", "V-COMA"),
             (32, "FFT", "L0-TLB"), (32, "FFT", "V-COMA")])

    def test_two_axes_cross(self):
        s = make_spec(sweeps=[{
            "id": "s", "workloads": ["RADIX"], "schemes": ["L0"],
            "knobs": {"entries": [8, 16], "nodes": [8, 32]},
        }])
        combos = [(c.knobs["entries"], c.knobs["nodes"])
                  for c in s.expand()]
        self.assertEqual(combos,
                         [(8, 8), (8, 32), (16, 8), (16, 32)])

    def test_defaults_fill_unset_knobs(self):
        s = make_spec(defaults={"scale": 0.25, "nodes": 16})
        cfg = s.expand()[0]
        self.assertEqual(cfg.knobs["scale"], 0.25)
        self.assertEqual(cfg.knobs["nodes"], 16)
        self.assertEqual(cfg.knobs["entries"], 8)   # built-in default

    def test_sweep_knob_beats_default(self):
        s = make_spec(defaults={"nodes": 16},
                      sweeps=[{"id": "s", "workloads": ["RADIX"],
                               "schemes": ["L0"],
                               "knobs": {"nodes": 64}}])
        self.assertEqual(s.expand()[0].knobs["nodes"], 64)

    def test_override_patches_matching_configs_only(self):
        s = make_spec(sweeps=[{
            "id": "s",
            "workloads": ["RAYTRACE", "RADIX"],
            "schemes": ["L0", "VCOMA"],
            "overrides": [{"match": {"workload": "RAYTRACE",
                                     "scheme": "VCOMA"},
                           "set": {"raytrace_v2": True}}],
        }])
        v2 = {(c.workload, c.scheme): c.knobs["raytrace_v2"]
              for c in s.expand()}
        self.assertTrue(v2[("RAYTRACE", "V-COMA")])
        self.assertFalse(v2[("RAYTRACE", "L0-TLB")])
        self.assertFalse(v2[("RADIX", "V-COMA")])

    def test_override_can_match_axis_value(self):
        s = make_spec(sweeps=[{
            "id": "s", "workloads": ["RADIX"], "schemes": ["L0"],
            "knobs": {"entries": [8, 32]},
            "overrides": [{"match": {"entries": 32},
                           "set": {"am_assoc": 8}}],
        }])
        got = {c.knobs["entries"]: c.knobs["am_assoc"]
               for c in s.expand()}
        self.assertEqual(got, {8: 4, 32: 8})


class RejectionTest(unittest.TestCase):
    def test_unknown_knob(self):
        with self.assertRaisesRegex(M.SpecError, "unknown knob"):
            make_spec(sweeps=[{"id": "s", "workloads": ["RADIX"],
                               "schemes": ["L0"],
                               "knobs": {"ways": 4}}])

    def test_knob_type_mismatch(self):
        with self.assertRaisesRegex(M.SpecError, "integer"):
            make_spec(sweeps=[{"id": "s", "workloads": ["RADIX"],
                               "schemes": ["L0"],
                               "knobs": {"entries": 8.5}}])
        with self.assertRaisesRegex(M.SpecError, "bool"):
            make_spec(sweeps=[{"id": "s", "workloads": ["RADIX"],
                               "schemes": ["L0"],
                               "knobs": {"timed": 1}}])

    def test_empty_axis(self):
        with self.assertRaisesRegex(M.SpecError, "axis is empty"):
            make_spec(sweeps=[{"id": "s", "workloads": ["RADIX"],
                               "schemes": ["L0"],
                               "knobs": {"entries": []}}])

    def test_default_cannot_be_axis(self):
        with self.assertRaisesRegex(M.SpecError, "cannot be an axis"):
            make_spec(defaults={"entries": [8, 16]})

    def test_duplicate_sweep_ids(self):
        with self.assertRaisesRegex(M.SpecError, "duplicate sweep"):
            make_spec(sweeps=[
                {"id": "s", "workloads": ["RADIX"], "schemes": ["L0"]},
                {"id": "s", "workloads": ["FFT"], "schemes": ["L0"]}])

    def test_figure_must_reference_declared_sweep(self):
        with self.assertRaisesRegex(M.SpecError, "not declared"):
            make_spec(figures=[{"file": "a.svg",
                                "type": "miss_rates",
                                "sweep": "nope"}])

    def test_figure_file_must_be_bare_svg(self):
        for bad in ("a.png", "sub/a.svg"):
            with self.assertRaisesRegex(M.SpecError, "bare"):
                make_spec(figures=[{"file": bad, "type": "miss_rates",
                                    "sweep": "s"}])

    def test_table_outputs(self):
        sweeps = [{"id": "s", "workloads": ["RADIX"], "schemes": ["L0"]},
                  {"id": "t", "workloads": ["FFT"], "schemes": ["L0"]}]
        s = make_spec(sweeps=sweeps, figures=[
            {"file": "a.md", "type": "miss_rate_pct", "sweep": "s"},
            {"file": "b.md", "type": "exec_time", "sweep": ["s", "t"]},
            {"file": "c.md", "type": "tag_overhead"}])
        self.assertEqual([f.sweeps for f in s.figures],
                         [["s"], ["s", "t"], []])
        self.assertTrue(all(f.is_table for f in s.figures))
        bad = ({"file": "a.md", "type": "miss_rates", "sweep": "s"},
               {"file": "a.svg", "type": "miss_rate_pct", "sweep": "s"},
               {"file": "a.md", "type": "exec_time", "sweep": ["s", "x"]},
               {"file": "a.md", "type": "exec_time", "sweep": [1]},
               {"file": "a.md", "type": "exec_time", "sweep": []},
               {"file": "a.md", "type": "exec_time"},
               {"file": "a.md", "type": "exec_time", "sweep": "s",
                "title": 3})
        for fig in bad:
            with self.assertRaises(M.SpecError, msg=repr(fig)):
                make_spec(sweeps=sweeps, figures=[fig])

    def test_duplicate_figure_files(self):
        figs = [{"file": "a.svg", "type": "miss_rates", "sweep": "s"},
                {"file": "a.svg", "type": "pressure", "sweep": "s"}]
        with self.assertRaisesRegex(M.SpecError, "duplicate figure"):
            make_spec(figures=figs)

    def test_unknown_keys_rejected(self):
        with self.assertRaisesRegex(M.SpecError, "unknown"):
            M.Spec({"sweeps": [], "plots": []})
        with self.assertRaisesRegex(M.SpecError, "unknown keys"):
            make_spec(sweeps=[{"id": "s", "workloads": ["RADIX"],
                               "schemes": ["L0"], "axes": {}}])


STOCK_SPECS = ("smoke.json", "paper_grid.json", "datacenter_grid.json",
               "modern_showdown.json", "paper_ablations.json")


class LoadSpecTest(unittest.TestCase):
    def test_stock_specs_load_and_expand(self):
        for name in STOCK_SPECS:
            s = M.load_spec(os.path.join("specs", name))
            self.assertTrue(s.expand(), name)
            self.assertTrue(s.figures, name)

    def test_literal_path_wins(self):
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "x.json")
            with open(p, "w", encoding="utf-8") as f:
                json.dump({"name": "x", "sweeps": [
                    {"workloads": ["FFT"], "schemes": ["NMT"]}]}, f)
            s = M.load_spec(p)
            self.assertEqual(s.expand()[0].scheme, "NMT")

    def test_missing_spec(self):
        with self.assertRaisesRegex(M.SpecError, "not found"):
            M.load_spec("no/such/spec.json")

    def test_invalid_json(self):
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "x.json")
            with open(p, "w", encoding="utf-8") as f:
                f.write("{nope")
            with self.assertRaisesRegex(M.SpecError, "not valid JSON"):
                M.load_spec(p)


#: what a structural mutation puts in place of a node.
REPLACEMENTS = (None, True, False, 0, -1, 0.5, math.inf, -math.inf,
                math.nan, 2 ** 70, "", "RADIX", [], [1, "x"], {},
                {"k": 1})


def _nodes(obj, path=()):
    """Every node of a JSON tree, as a path of keys/indices."""
    yield path
    children = (obj.items() if isinstance(obj, dict)
                else enumerate(obj) if isinstance(obj, list) else ())
    for k, v in children:
        yield from _nodes(v, path + (k,))


class SpecFuzzTest(unittest.TestCase):
    """Mutated stock specs fail closed: every rejection is a SpecError,
    and an accepted spec expands to finite knob values only."""

    def setUp(self):
        self.stock = []
        for name in STOCK_SPECS:
            with open(M._package_spec_path(name), "rb") as f:
                self.stock.append(f.read())

    def check(self, what, load):
        try:
            configs = load().expand()
        except M.SpecError:
            return
        except Exception as e:  # noqa: BLE001 -- the point of the test
            self.fail(f"{what}: {type(e).__name__}: {e}")
        for cfg in configs:
            for name, value in cfg.knobs.items():
                self.assertTrue(math.isfinite(value), f"{what}: {name}")

    def test_byte_mutations(self):
        rng = random.Random(18)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "fuzz.json")
            for i in range(2000):
                data = bytearray(rng.choice(self.stock))
                at = rng.randrange(len(data))
                op = rng.choice(("flip", "delete", "insert", "truncate"))
                if op == "flip":
                    data[at] ^= 1 << rng.randrange(8)
                elif op == "insert":
                    data.insert(at, rng.randrange(256))
                else:
                    del data[at:at + 1 if op == "delete" else None]
                with open(path, "wb") as f:
                    f.write(data)
                self.check(f"byte mutation {i} ({op} at {at})",
                           lambda: M.load_spec(path))

    def test_structural_mutations(self):
        rng = random.Random(19)
        stock = [json.loads(b) for b in self.stock]
        for i in range(2000):
            obj = copy.deepcopy(rng.choice(stock))
            *up, last = rng.choice(list(_nodes(obj))[1:])
            parent = obj
            for k in up:
                parent = parent[k]
            parent[last] = copy.deepcopy(rng.choice(REPLACEMENTS))
            self.check(f"structural mutation {i} ({up} {last!r} -> "
                       f"{parent[last]!r})", lambda: M.Spec(obj))

    def test_found_defects_fail_closed(self):
        """The fuzz's finds, pinned one by one."""
        sweep = {"id": "s", "workloads": ["RADIX"], "schemes": ["L0"]}
        fig = {"file": "f.svg", "type": "miss_curves", "sweep": "s"}
        knobs = ({"entries": math.inf}, {"entries": math.nan},
                 {"scale": math.inf}, {"scale": [0.1, math.nan]},
                 {"scale": 10 ** 400})
        for kw in ([{"sweeps": [dict(sweep, knobs=k)]} for k in knobs]
                   + [{"sweeps": [dict(sweep, overrides=True)]},
                      {"figures": 1.5}, {"figures": [dict(fig, x=[])]},
                      {"figures": [dict(fig, sweep=["s"])]}]):
            with self.assertRaises(M.SpecError, msg=repr(kw)):
                make_spec(**kw)

if __name__ == "__main__":
    unittest.main()
