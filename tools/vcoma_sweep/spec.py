"""Sweep specifications: a sweep declared as data.

A spec is a JSON document:

    {
      "name": "paper_grid",
      "defaults": {"scale": 0.1, "nodes": 32},
      "sweeps": [
        {
          "id": "miss_curves",
          "workloads": ["RADIX", "FFT"],
          "schemes": ["L0", "VCOMA"],
          "knobs": {"entries": [8, 32, 128, 512]},
          "overrides": [
            {"match": {"workload": "RAYTRACE", "scheme": "V-COMA"},
             "set": {"raytrace_v2": true}}
          ]
        }
      ],
      "figures": [
        {"file": "fig8.svg", "type": "miss_curves",
         "sweep": "miss_curves", "x": "entries"},
        {"file": "fig8.md", "type": "shadow_curves",
         "sweep": "miss_curves"}
      ]
    }

Outputs are named after the paper artefact they reproduce. A `*.svg`
file is a figure (render.py, FIGURE_TYPES); a `*.md` file is a
Markdown table (tables.py, TABLE_TYPES), which may read a list of
sweeps and, for the arithmetic-only types, none.

Expansion rules:

  * Within a sweep, every knob whose value is a *list* is an axis;
    the sweep expands to the cross product of all axes x workloads x
    schemes. Axis combinations vary outermost so that configs sharing
    one knob combination are consecutive (the submit layer turns each
    such run into one `vcoma_client` invocation with comma lists).
    Within a combination the order is workloads outer, schemes inner
    -- exactly `vcoma_client`'s own sweep order, so the collected
    JSONL lines land in spec order whatever the grouping.
  * `defaults` (and the built-in knob defaults below) fill whatever a
    sweep leaves unspecified.
  * `overrides` patch the knobs of every expanded config whose
    workload/scheme/knob values equal the `match` object -- per-axis
    irregularities (the paper's RAYTRACE/V2 layout variant, say)
    without abandoning the cross product.

Scheme tokens reuse the registry's canonical names and parse aliases
(src/translation/scheme.cc); workloads reuse the `TRACE:<path>` and
`KVLOOKUP:skew=...,read=...,ws=...` grammar of makeWorkload(). Both
are validated here so a bad spec dies before anything is submitted --
and `vcoma_client` re-validates, so registry drift fails loudly
rather than silently diverging.
"""

import itertools
import json
import os


class SpecError(ValueError):
    """A malformed spec, knob, scheme or workload spelling."""


# ---------------------------------------------------------------------------
# Scheme and workload vocabulary (mirrors the C++ registry; the client
# re-validates every token, so drift is a loud failure, not a skew).
# ---------------------------------------------------------------------------

#: canonical scheme name -> accepted aliases (besides the name itself).
SCHEMES = {
    "L0-TLB": ("L0",),
    "L1-TLB": ("L1",),
    "L2-TLB": ("L2",),
    "L3-TLB": ("L3",),
    "V-COMA": ("VCOMA", "DLB"),
    "VICTIMA": ("Victima", "VICTIMA-TLB"),
    "NMT": (),
}

_SCHEME_BY_TOKEN = {}
for _name, _aliases in SCHEMES.items():
    _SCHEME_BY_TOKEN[_name.upper()] = _name
    for _a in _aliases:
        _SCHEME_BY_TOKEN[_a.upper()] = _name

#: workload base names accepted by makeWorkload().
PAPER_WORKLOADS = ("RADIX", "FFT", "FMM", "OCEAN", "RAYTRACE", "BARNES")
SYNTHETIC_WORKLOADS = ("UNIFORM", "STRIDE", "HOTSPOT")
DATACENTER_WORKLOADS = ("KVLOOKUP", "GRAPH", "STREAMJOIN")
ALL_WORKLOADS = PAPER_WORKLOADS + SYNTHETIC_WORKLOADS + DATACENTER_WORKLOADS

#: inline knobs the datacenter kernels accept ("KVLOOKUP:skew=1.2").
WORKLOAD_KNOBS = ("skew", "read", "ws")

#: knob -> (python type, vcoma_client flag or None for booleans,
#:          default). Mirrors ExperimentConfig's fields and defaults.
KNOBS = {
    "entries":      (int,   "--entries",      8),
    "assoc":        (int,   "--assoc",        0),
    "nodes":        (int,   "--nodes",        32),
    "scale":        (float, "--scale",        1.0),
    "seed":         (int,   "--seed",         1),
    "timed":        (bool,  None,             False),
    "wback_tlb":    (bool,  None,             True),
    "raytrace_v2":  (bool,  None,             False),
    "am_assoc":     (int,   "--am-assoc",     4),
    "xlat_penalty": (int,   "--xlat-penalty", 40),
}

FIGURE_TYPES = ("exec_breakdown", "miss_rates", "miss_curves", "pressure")

#: Markdown table types (tables.py); a `*.md` output declares one.
TABLE_TYPES = ("benchmarks", "miss_rate_pct", "equivalent_size",
               "shadow_curves", "direct_mapped", "stall_share",
               "exec_time", "pressure_groups", "injection",
               "dlb_scaling", "software_tlb", "am_assoc", "xlat_cost",
               "layout", "knob_sweep", "walks", "tag_overhead")

#: table types computed without any sweep.
SWEEPLESS_TYPES = ("tag_overhead",)


def canonical_scheme(token):
    """Canonical registry name for @token, or SpecError."""
    if not isinstance(token, str):
        raise SpecError(f"scheme token must be a string, got {token!r}")
    name = _SCHEME_BY_TOKEN.get(token.upper())
    if name is None:
        known = ", ".join(sorted(SCHEMES))
        raise SpecError(f"unknown scheme {token!r} (known: {known})")
    return name


def canonical_workload(spelling):
    """Validate a workload spelling, return its canonical form.

    Base names are upper-cased (makeWorkload is case-insensitive);
    TRACE: paths and inline knob strings are preserved verbatim
    because they flow into cache keys.
    """
    if not isinstance(spelling, str) or not spelling:
        raise SpecError(f"workload must be a non-empty string, "
                        f"got {spelling!r}")
    if spelling.upper().startswith("TRACE:"):
        if len(spelling) <= len("TRACE:"):
            raise SpecError(f"workload {spelling!r}: empty trace path")
        return "TRACE:" + spelling[len("TRACE:"):]
    base, sep, knobs = spelling.partition(":")
    base = base.upper()
    if base not in ALL_WORKLOADS:
        known = ", ".join(ALL_WORKLOADS)
        raise SpecError(f"unknown workload {spelling!r} (known: {known}, "
                        "or TRACE:<path>)")
    if not sep:
        return base
    if base not in DATACENTER_WORKLOADS:
        raise SpecError(f"workload {spelling!r}: only the datacenter "
                        "kernels accept inline knobs")
    if not knobs:
        raise SpecError(f"workload {spelling!r}: empty knob list")
    for item in knobs.split(","):
        key, eq, value = item.partition("=")
        if not eq or key not in WORKLOAD_KNOBS:
            raise SpecError(
                f"workload {spelling!r}: bad knob {item!r} (knobs: "
                + ", ".join(WORKLOAD_KNOBS) + ")")
        try:
            float(value)
        except ValueError:
            raise SpecError(f"workload {spelling!r}: knob {key!r} value "
                            f"{value!r} is not a number") from None
    return base + ":" + knobs


def _check_knob(name, value):
    """Type-check one scalar knob value, returning it normalized."""
    if name not in KNOBS:
        known = ", ".join(sorted(KNOBS))
        raise SpecError(f"unknown knob {name!r} (known: {known})")
    want, _flag, _default = KNOBS[name]
    if want is bool:
        if not isinstance(value, bool):
            raise SpecError(f"knob {name!r} wants a bool, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"knob {name!r} wants {want.__name__}, "
                        f"got {value!r}")
    # JSON admits Infinity, NaN (which fails every comparison) and
    # 1e999; vcoma_client takes none of them.
    if not abs(value) < 2 ** 64:
        raise SpecError(f"knob {name!r} wants a finite number below "
                        f"2**64, got {value!r}")
    if want is int:
        if isinstance(value, float) and not value.is_integer():
            raise SpecError(f"knob {name!r} wants an integer, "
                            f"got {value!r}")
        return int(value)
    return float(value)


def _fmt_double(v):
    """Format a float the way `std::ostream << double` does (6
    significant digits, no trailing zeros) so mirrored cache keys are
    byte-identical to the C++ ones."""
    return f"{float(v):.6g}"


def _sanitize_key_component(s):
    """Mirror of runner.cc sanitizeKeyComponent(): filesystem-safe
    ASCII characters pass through, any other byte of the UTF-8
    spelling becomes '_', and a dirty component gains an FNV-1a
    disambiguating suffix."""
    raw = s.encode("utf-8", "surrogateescape")
    out = []
    dirty = False
    for c in map(chr, raw):
        if (c.isascii() and c.isalnum()) or c in "._-=,":
            out.append(c)
        else:
            out.append("_")
            dirty = True
    if not dirty:
        return "".join(out)
    h = 1469598103934665603
    for b in raw:
        h ^= b
        h = (h * 1099511628211) % (1 << 64)
    return "".join(out) + "-h" + format((h ^ (h >> 32)) & 0xffffffff, "08x")


class Config:
    """One expanded simulation point: workload x scheme x full knobs."""

    __slots__ = ("sweep_id", "workload", "scheme", "knobs")

    def __init__(self, sweep_id, workload, scheme, knobs):
        self.sweep_id = sweep_id
        self.workload = workload
        self.scheme = scheme          # canonical registry name
        self.knobs = dict(knobs)      # complete: every KNOBS key set

    def key(self):
        """Mirror of ExperimentConfig::key() -- the cache key, sheet
        file name and provenance handle."""
        k = self.knobs
        return (f"{_sanitize_key_component(self.workload)}-{self.scheme}"
                f"-e{k['entries']}-a{k['assoc']}"
                f"-t{int(k['timed'])}-w{int(k['wback_tlb'])}"
                f"-v2_{int(k['raytrace_v2'])}-n{k['nodes']}"
                f"-s{_fmt_double(k['scale'])}-r{k['seed']}"
                f"-k{k['am_assoc']}-p{k['xlat_penalty']}")

    def knob_flags(self):
        """vcoma_client flags for this config's knobs (always the full
        set, so every invocation is explicit and order-independent)."""
        k = self.knobs
        flags = []
        for name in ("entries", "assoc", "nodes", "scale", "seed",
                     "am_assoc", "xlat_penalty"):
            _t, flag, _d = KNOBS[name]
            value = k[name]
            flags += [flag, _fmt_double(value) if _t is float
                      else str(value)]
        flags.append("--timed" if k["timed"] else "--untimed")
        if not k["wback_tlb"]:
            flags.append("--no-wback-tlb")
        if k["raytrace_v2"]:
            flags.append("--raytrace-v2")
        return flags

    def provenance(self):
        """The row-identity columns of the collected table."""
        row = {"key": self.key(), "sweep": self.sweep_id,
               "workload": self.workload, "scheme": self.scheme}
        row.update({k: self.knobs[k] for k in sorted(self.knobs)})
        return row

    def __repr__(self):
        return f"Config({self.key()})"


class Sweep:
    """One declared grid: workloads x schemes x knob axes."""

    def __init__(self, obj, defaults, index):
        if not isinstance(obj, dict):
            raise SpecError(f"sweeps[{index}] must be an object")
        unknown = set(obj) - {"id", "workloads", "schemes", "knobs",
                              "overrides"}
        if unknown:
            raise SpecError(f"sweeps[{index}]: unknown keys "
                            f"{sorted(unknown)}")
        self.id = obj.get("id", f"sweep{index}")
        if not isinstance(self.id, str) or not self.id:
            raise SpecError(f"sweeps[{index}]: id must be a non-empty "
                            "string")
        workloads = obj.get("workloads")
        if not isinstance(workloads, list) or not workloads:
            raise SpecError(f"sweep {self.id!r}: workloads must be a "
                            "non-empty list")
        self.workloads = [canonical_workload(w) for w in workloads]
        schemes = obj.get("schemes")
        if not isinstance(schemes, list) or not schemes:
            raise SpecError(f"sweep {self.id!r}: schemes must be a "
                            "non-empty list")
        self.schemes = [canonical_scheme(s) for s in schemes]

        knobs = obj.get("knobs", {})
        if not isinstance(knobs, dict):
            raise SpecError(f"sweep {self.id!r}: knobs must be an object")
        self.scalars = {}   # knob -> value
        self.axes = []      # [(knob, [values...])] in declaration order
        for name, value in knobs.items():
            if isinstance(value, list):
                if not value:
                    raise SpecError(f"sweep {self.id!r}: knob {name!r} "
                                    "axis is empty")
                self.axes.append(
                    (name, [_check_knob(name, v) for v in value]))
            else:
                self.scalars[name] = _check_knob(name, value)
        for name, value in defaults.items():
            self.scalars.setdefault(name, value)

        overrides = obj.get("overrides", [])
        if not isinstance(overrides, list):
            raise SpecError(f"sweep {self.id!r}: overrides must be a list")
        self.overrides = []
        for j, ov in enumerate(overrides):
            if (not isinstance(ov, dict)
                    or set(ov) - {"match", "set"}
                    or not isinstance(ov.get("match"), dict)
                    or not isinstance(ov.get("set"), dict)
                    or not ov["set"]):
                raise SpecError(f"sweep {self.id!r}: overrides[{j}] must "
                                "be {\"match\": {...}, \"set\": {...}}")
            match = {}
            for mk, mv in ov["match"].items():
                if mk == "workload":
                    match[mk] = canonical_workload(mv)
                elif mk == "scheme":
                    match[mk] = canonical_scheme(mv)
                else:
                    match[mk] = _check_knob(mk, mv)
            patch = {sk: _check_knob(sk, sv)
                     for sk, sv in ov["set"].items()}
            self.overrides.append((match, patch))

    def expand(self):
        """The sweep's configs, knob combinations outermost."""
        configs = []
        axis_values = [values for _n, values in self.axes]
        for combo in itertools.product(*axis_values):
            knobs = {name: default for name, (_t, _f, default)
                     in KNOBS.items()}
            knobs.update(self.scalars)
            knobs.update({name: value for (name, _), value
                          in zip(self.axes, combo)})
            for workload in self.workloads:
                for scheme in self.schemes:
                    cfg = Config(self.id, workload, scheme, knobs)
                    for match, patch in self.overrides:
                        if self._matches(cfg, match):
                            cfg.knobs.update(patch)
                    configs.append(cfg)
        return configs

    @staticmethod
    def _matches(cfg, match):
        for mk, mv in match.items():
            if mk == "workload":
                if cfg.workload != mv:
                    return False
            elif mk == "scheme":
                if cfg.scheme != mv:
                    return False
            elif cfg.knobs[mk] != mv:
                return False
        return True


class Figure:
    """One declared output over collected rows: an SVG figure or a
    Markdown table, by the file's extension."""

    def __init__(self, obj, sweep_ids, index):
        if not isinstance(obj, dict):
            raise SpecError(f"figures[{index}] must be an object")
        unknown = set(obj) - {"file", "type", "sweep", "title",
                              "baseline", "x", "scheme"}
        if unknown:
            raise SpecError(f"figures[{index}]: unknown keys "
                            f"{sorted(unknown)}")
        self.file = obj.get("file")
        if (not isinstance(self.file, str)
                or not self.file.endswith((".svg", ".md"))
                or os.path.basename(self.file) != self.file):
            raise SpecError(f"figures[{index}]: file must be a bare "
                            "*.svg or *.md name")
        self.is_table = self.file.endswith(".md")
        types = TABLE_TYPES if self.is_table else FIGURE_TYPES
        self.type = obj.get("type")
        if self.type not in types:
            raise SpecError(f"figures[{index}]: {self.file} type must "
                            "be one of " + ", ".join(types))
        # A table may read several sweeps (Fig. 10's seed average, the
        # software-TLB ablation); a figure reads exactly one.
        sweeps = obj.get("sweep")
        if self.is_table and isinstance(sweeps, list) and sweeps:
            self.sweeps = sweeps
        elif sweeps is None and self.type in SWEEPLESS_TYPES:
            self.sweeps = []
        else:
            self.sweeps = [sweeps]
        for sweep in self.sweeps:
            if not isinstance(sweep, str) or sweep not in sweep_ids:
                raise SpecError(f"figures[{index}]: sweep {sweep!r} is "
                                "not declared")
        self.sweep = ",".join(self.sweeps)
        self.title = obj.get("title", "")
        if not isinstance(self.title, str):
            raise SpecError(f"figures[{index}]: title must be a string")
        self.baseline = (canonical_scheme(obj["baseline"])
                         if "baseline" in obj else None)
        self.scheme = (canonical_scheme(obj["scheme"])
                       if "scheme" in obj else None)
        self.x = obj.get("x", "entries")
        if not isinstance(self.x, str) or self.x not in KNOBS:
            raise SpecError(f"figures[{index}]: x must name a knob")


class Spec:
    """A parsed, validated sweep spec."""

    def __init__(self, obj, name_hint="spec"):
        if not isinstance(obj, dict):
            raise SpecError("spec must be a JSON object")
        unknown = set(obj) - {"name", "defaults", "sweeps", "figures"}
        if unknown:
            raise SpecError(f"spec: unknown top-level keys "
                            f"{sorted(unknown)}")
        self.name = obj.get("name", name_hint)
        defaults = obj.get("defaults", {})
        if not isinstance(defaults, dict):
            raise SpecError("spec: defaults must be an object")
        self.defaults = {}
        for name, value in defaults.items():
            if isinstance(value, list):
                raise SpecError(f"default knob {name!r} cannot be an "
                                "axis; declare axes per sweep")
            self.defaults[name] = _check_knob(name, value)
        sweeps = obj.get("sweeps")
        if not isinstance(sweeps, list) or not sweeps:
            raise SpecError("spec: sweeps must be a non-empty list")
        self.sweeps = [Sweep(s, self.defaults, i)
                       for i, s in enumerate(sweeps)]
        ids = [s.id for s in self.sweeps]
        if len(set(ids)) != len(ids):
            raise SpecError(f"spec: duplicate sweep ids in {ids}")
        figures = obj.get("figures", [])
        if not isinstance(figures, list):
            raise SpecError("spec: figures must be a list")
        self.figures = [Figure(f, set(ids), i)
                        for i, f in enumerate(figures)]
        files = [f.file for f in self.figures]
        if len(set(files)) != len(files):
            raise SpecError(f"spec: duplicate figure files in {files}")

    def expand(self):
        """Every config of every sweep, in declaration order."""
        configs = []
        for sweep in self.sweeps:
            configs.extend(sweep.expand())
        return configs


def _package_spec_path(path):
    """Fall back to the stock specs shipped with the package, so
    `specs/paper_grid.json` resolves from any working directory."""
    here = os.path.dirname(os.path.abspath(__file__))
    candidate = os.path.join(here, "specs", os.path.basename(path))
    return candidate if os.path.exists(candidate) else None


def load_spec(path):
    """Load and validate a spec file (literal path first, then the
    package's stock `specs/` directory)."""
    actual = path
    if not os.path.exists(actual):
        fallback = _package_spec_path(path)
        if fallback is None:
            raise SpecError(f"spec file {path!r} not found")
        actual = fallback
    try:
        with open(actual, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except ValueError as e:
        raise SpecError(f"{actual}: not valid JSON: {e}") from None
    name_hint = os.path.splitext(os.path.basename(actual))[0]
    spec = Spec(obj, name_hint=name_hint)
    return spec
