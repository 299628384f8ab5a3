"""Submission: expanded configs -> collected JSONL.

Each invocation is `vcoma_client direct`: one Runner::runAll batch,
in-process. After submit() returns, the
JSONL file holds exactly one record per expanded config, in spec
order, each record being the byte-exact writeRunStatsJson() sheet
(or a {"key":...,"error":...} placeholder for a failed config).

Invocation planning: configs sharing one knob combination are
submitted as a single `vcoma_client` call with `--workloads`/
`--schemes` comma lists when (and only when) the group is a pure
cross product and no token contains a comma (inline workload knobs
use commas); anything irregular -- an override that patched one
config, say -- degrades to per-config calls. Either way the JSONL
order is the spec order.
"""

import os
import subprocess
import time


class SubmitError(RuntimeError):
    """A client invocation failed outright (bad flags, a crash)."""


BACKENDS = ("direct",)


class Invocation:
    """One planned `vcoma_client` call covering >= 1 configs."""

    def __init__(self, configs, workloads, schemes):
        self.configs = configs      # in spec order
        self.workloads = workloads  # unique, ordered
        self.schemes = schemes      # unique, ordered

    def sweep_args(self):
        args = []
        if len(self.workloads) == 1:
            args += ["--workload", self.workloads[0]]
        else:
            args += ["--workloads", ",".join(self.workloads)]
        if len(self.schemes) == 1:
            args += ["--scheme", self.schemes[0]]
        else:
            args += ["--schemes", ",".join(self.schemes)]
        args += self.configs[0].knob_flags()
        return args


def _unique(seq):
    out = []
    for item in seq:
        if item not in out:
            out.append(item)
    return out


def plan_invocations(configs):
    """Group consecutive same-knob configs into client calls.

    The group's (workload, scheme) sequence must be exactly the cross
    product the client itself would enumerate (workloads outer,
    schemes inner) -- otherwise the JSONL order would diverge from
    the spec order and the collector's provenance join would lie.
    """
    plan = []
    i = 0
    while i < len(configs):
        j = i + 1
        while (j < len(configs)
               and configs[j].knobs == configs[i].knobs
               and configs[j].sweep_id == configs[i].sweep_id):
            j += 1
        group = configs[i:j]
        workloads = _unique(c.workload for c in group)
        schemes = _unique(c.scheme for c in group)
        cross = [(w, s) for w in workloads for s in schemes]
        commas = any("," in t for t in workloads + schemes)
        if not commas and cross == [(c.workload, c.scheme)
                                    for c in group]:
            plan.append(Invocation(group, workloads, schemes))
        else:
            plan.extend(Invocation([c], [c.workload], [c.scheme])
                        for c in group)
        i = j
    return plan


def default_client():
    """Locate the built vcoma_client: $VCOMA_CLIENT, then the usual
    build-tree spots relative to the working directory and to this
    package (tools/vcoma_sweep -> repo root)."""
    env = os.environ.get("VCOMA_CLIENT")
    if env:
        return env
    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(os.path.dirname(here))
    for candidate in ("build/tools/vcoma_client",
                      "tools/vcoma_client",
                      os.path.join(repo, "build/tools/vcoma_client")):
        if os.path.exists(candidate):
            return candidate
    return "vcoma_client"   # hope for PATH


class Options:
    """Which client to run, and in what environment (None = ours)."""

    def __init__(self, backend="direct", client=None, env=None):
        if backend not in BACKENDS:
            raise SubmitError(f"unknown backend {backend!r} "
                              f"(one of {', '.join(BACKENDS)})")
        self.backend = backend
        self.client = client or default_client()
        self.env = env

    def command(self, invocation, jsonl_path):
        return ([self.client, "direct"] + invocation.sweep_args()
                + ["--jsonl", jsonl_path])


class SubmitResult:
    """What happened per config, for the collector's provenance."""

    def __init__(self):
        self.jsonl_path = None
        self.invocations = 0
        #: key -> True (cache hit) / False (simulated) / None (failed
        #: or the client predates the provenance lines).
        self.cached = {}
        #: key -> wall ms of the invocation that carried the config.
        self.wall_ms = {}


def _parse_provenance(stderr_text, result):
    """Pick the per-config `vcoma_client: KEY (cached|simulated)`
    lines out of the client's stderr."""
    for line in stderr_text.splitlines():
        if not line.startswith("vcoma_client: "):
            continue
        rest = line[len("vcoma_client: "):]
        for suffix, cached in ((" (cached)", True),
                               (" (simulated)", False)):
            if rest.endswith(suffix):
                result.cached[rest[:-len(suffix)]] = cached


def submit(configs, jsonl_path, options, log=None, strict=True):
    """Run every planned invocation in order, appending to
    @jsonl_path (which is removed first: the client appends).

    Returns a SubmitResult. With @strict, a client invocation that
    exits non-zero for anything but per-config simulation failures
    (exit 1 with placeholder lines already written) raises.
    """
    say = log or (lambda _msg: None)
    if os.path.exists(jsonl_path):
        os.remove(jsonl_path)
    os.makedirs(os.path.dirname(os.path.abspath(jsonl_path)),
                exist_ok=True)
    result = SubmitResult()
    result.jsonl_path = jsonl_path
    plan = plan_invocations(configs)
    for n, invocation in enumerate(plan, start=1):
        cmd = options.command(invocation, jsonl_path)
        say(f"[{n}/{len(plan)}] {len(invocation.configs)} config(s): "
            + " ".join(cmd))
        started = time.monotonic()
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=options.env, text=True)
        wall = (time.monotonic() - started) * 1000.0
        _parse_provenance(proc.stderr, result)
        for cfg in invocation.configs:
            result.wall_ms[cfg.key()] = wall
        if proc.returncode not in (0, 1):
            raise SubmitError(
                f"client exited {proc.returncode} for "
                f"{' '.join(cmd)}:\n{proc.stderr.strip()}")
        if proc.returncode == 1:
            say(f"  some config(s) failed:\n{proc.stderr.strip()}")
            if strict:
                raise SubmitError(
                    "simulation failure(s) in "
                    f"{' '.join(cmd)}:\n{proc.stderr.strip()}")
        result.invocations += 1
    return result


def dry_run_lines(configs, options, jsonl_path="<out>/results.jsonl"):
    """The expanded config list plus the exact commands that would
    run -- `--dry-run`'s output."""
    lines = [f"{len(configs)} config(s):"]
    lines += [f"  {c.key()}" for c in configs]
    plan = plan_invocations(configs)
    lines.append(f"{len(plan)} client invocation(s):")
    lines += ["  " + " ".join(options.command(inv, jsonl_path))
              for inv in plan]
    return lines
