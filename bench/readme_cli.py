"""readme-cli: the nine README commands, each in a fresh interpreter.

This is the only path through the ``cli`` layer: import cost, argument
parsing, JSON payloads and CSV writing.  Commands run verbatim from a
scratch directory, so their ``--out`` files land there.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile

from common import Op

# The console script's entry point, run by the interpreter the benchmark uses.
ENTRY = "import sys; from tensorpotts.cli import main; sys.exit(main())"

# (name, argv as in the README, keys the JSON payload must have, --out file)
COMMANDS = [
    ("landmarks", "landmarks --p 7 --q 5",
     ["beta_c", "beta_tilde", "h_tilde", "s_pq", "type"], None),
    ("classify", "classify --p 4 --q 3 --beta 0.616 --h 0.67",
     ["tag", "s_values", "f_values", "warnings"], None),
    ("curve", "curve --p 7 --q 5 --samples 400 --out curve.csv",
     ["n_samples", "h_range", "beta_range", "out"], "curve.csv"),
    ("phase-diagram", "phase-diagram --p 4 --q 2 --beta-min 0.3 --beta-max 1.2 "
     "--h-max 0.5 --resolution 41 --out grid.csv",
     ["beta_c", "special", "curve", "grid", "out"], "grid.csv"),
    ("exact", "exact --p 4 --q 3 --beta 0.616 --h 0.67 --N 500 --out marginals.csv",
     ["u_N1", "u_Np", "log_partition", "support_size", "out"], "marginals.csv"),
    ("simulate", "simulate --p 4 --q 3 --beta 0.616 --h 0.67 --N 1000 --samples 20000 "
     "--seed 1 --project 0.157 0.396 0.323 --out samples.csv",
     ["tag", "n_samples", "scale_exponent", "out", "density_out"], "samples.csv"),
    ("estimate", "estimate --p 4 --q 3 --beta 0.616 --h 0.67 --param h --N 1000 --simulate",
     ["estimate", "observed_statistic", "iterations", "converged", "residual", "ci", "param"],
     None),
    ("ci", "ci --p 4 --q 3 --beta 1.3 --h 0 --param h --N 500 --simulate --method two_step",
     ["estimate", "converged", "ci", "param"], None),
    ("limit-check", "limit-check --p 4 --q 2 --beta 0.6666666666666666 --h 0 --N 4000 "
     "--samples 20000 --seed 9",
     ["ks_distance", "pass", "law", "tag", "n_samples"], None),
]
TINY_COMMANDS = ("landmarks", "classify")

RSS_SOURCE = resource.RUSAGE_CHILDREN  # peak RSS is that of the largest command


def setup(tp, rng, tiny):
    commands = [c for c in COMMANDS if not tiny or c[0] in TINY_COMMANDS]
    order = rng.permutation(len(commands))
    src = os.path.dirname(os.path.dirname(os.path.abspath(tp.__file__)))
    scratch = os.path.join(os.path.dirname(src), ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src)
    return {"commands": [commands[i] for i in order], "env": env,
            "workdir": tempfile.mkdtemp(prefix="cli-", dir=scratch),
            "stdout": {}, "rss_kb": {}}


def _run(state, argv):
    """Run one command to completion; returns (exit code, stdout, stderr, maxrss kB)."""
    out_path = os.path.join(state["workdir"], "stdout")
    err_path = os.path.join(state["workdir"], "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], cwd=state["workdir"],
                                env=state["env"], stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as out, open(err_path, "rb") as err:
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss


def _command_op(tp, state, name, argv, keys, out_file):
    def fn(tr):
        code, stdout, stderr, rss = tr.call("cli." + name, _run, state, argv.split())
        state["rss_kb"].setdefault(name, []).append(rss)
        return code, stdout, stderr

    def check(result):
        code, stdout, stderr = result
        if code != 0:
            return f"cli: {name} exited {code}: {stderr.decode(errors='replace')[-200:]}"
        try:
            payload = json.loads(stdout)
        except ValueError:
            return f"cli: {name} printed no JSON"
        missing = [k for k in keys if k not in payload]
        if missing:
            return f"cli: {name} JSON lacks {missing}"
        if out_file and os.path.getsize(os.path.join(state["workdir"], out_file)) == 0:
            return f"cli: {name} wrote an empty {out_file}"
        if state["stdout"].setdefault(name, stdout) != stdout:
            return f"cli: {name} stdout differs between passes"
        return None

    return Op(name, fn, check)


def ops(tp, state):
    return [_command_op(tp, state, *command) for command in state["commands"]]


def report(state):
    """Per-command peak RSS in MB (the latencies come from the op records)."""
    return {name: max(kb) / 1024.0 for name, kb in state["rss_kb"].items()}


def cleanup(state):
    shutil.rmtree(state["workdir"], ignore_errors=True)
