"""Every sweep-spec knob's flag is accepted, and both vcoma_client
commands read it the same way.

Sets each `KNOBS` entry of vcoma_sweep/spec.py to a value other than
its default, at a tiny scale, and passes `Config.knob_flags()` to
`vcoma_client direct` (its provenance key must equal `Config.key()`)
and to `vcoma_client run --jsonl` (its sheet must equal direct's byte
for byte). A second config sets only its size, so the two commands
must also agree with the spec on every default. A missing `TRACE:`
file with a non-ASCII name must fail `direct` under `Config.key()`,
so the sweep can match the failure line to its config. The result
cache lives under WORK_DIR.

    python3 cli_knob_flags.py path/to/vcoma_client WORK_DIR
"""

import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from vcoma_sweep.spec import KNOBS, Config  # noqa: E402

#: A non-default value for every knob, small enough to run in seconds.
VALUES = {"entries": 16, "assoc": 2, "nodes": 4, "scale": 0.02,
          "seed": 7, "timed": True, "wback_tlb": False,
          "raytrace_v2": True, "am_assoc": 2, "xlat_penalty": 60}

#: raytrace_v2 only moves RAYTRACE, wback_tlb only moves L2-TLB.
CONFIG = Config("knobs", "RAYTRACE", "L2-TLB", VALUES)

#: Every knob at its spec default but the size: given no flag for
#: them, both commands must pick the spec's defaults.
DEFAULTS = Config("defaults", "RAYTRACE", "L2-TLB",
                  {name: (VALUES[name] if name in ("nodes", "scale")
                          else default)
                   for name, (_type, _flag, default) in KNOBS.items()})


def client(binary, args, env):
    proc = subprocess.run([binary] + args, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    return proc.stderr


def same_sheet(binary, work, env, config, knob_flags):
    """Run @config (a spec Config, spelled with @knob_flags) through
    both commands: the direct provenance key must be its key() and
    the two sheets byte-equal."""
    flags = ["--workload", config.workload, "--scheme", config.scheme]
    flags += knob_flags
    direct_jsonl = os.path.join(work, config.sweep_id + ".direct.jsonl")
    err = client(binary, ["direct"] + flags + ["--jsonl", direct_jsonl],
                 env)
    want = f"vcoma_client: {config.key()} (simulated)"
    if want not in err.splitlines():
        sys.exit(f"direct did not simulate {config.key()}:\n{err}")

    run_jsonl = os.path.join(work, config.sweep_id + ".run.jsonl")
    client(binary, ["run"] + flags + ["--jsonl", run_jsonl], env)
    with open(direct_jsonl) as f:
        direct = f.read()
    with open(run_jsonl) as f:
        run = f.read()
    if run != direct:
        sys.exit(f"run's sheet differs from direct's:\n{run}\n{direct}")
    print(f"ok: {config.key()}")


def missing_trace_key(binary, work, env):
    """direct's failure line for a missing non-ASCII TRACE: file names
    the key the spec computes."""
    config = Config("trace", "TRACE:" + os.path.join(work, "é.vctrace"),
                    "V-COMA", {n: d for n, (_t, _f, d) in KNOBS.items()})
    proc = subprocess.run(
        [binary, "direct", "--workload", config.workload, "--scheme",
         config.scheme, "--jsonl", os.path.join(work, "trace.jsonl")],
        env=env, capture_output=True, text=True)
    want = f"vcoma_client: {config.key()}: failed: "
    if proc.returncode != 1 or not any(
            line.startswith(want) for line in proc.stderr.splitlines()):
        sys.exit(f"direct (exit {proc.returncode}) did not fail as "
                 f"{config.key()}:\n{proc.stderr}")
    print(f"ok: {config.key()}")


def main(binary, work):
    if set(VALUES) != set(KNOBS):
        sys.exit(f"VALUES must cover exactly KNOBS: {sorted(KNOBS)}")
    for name, value in VALUES.items():
        if value == KNOBS[name][2]:
            sys.exit(f"{name}={value!r} is the default; pick another")

    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, VCOMA_CACHE_DIR=os.path.join(work, "cache"))
    same_sheet(binary, work, env, CONFIG, CONFIG.knob_flags())
    same_sheet(binary, work, env, DEFAULTS,
               ["--nodes", str(VALUES["nodes"]),
                "--scale", str(VALUES["scale"])])
    missing_trace_key(binary, work, env)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
