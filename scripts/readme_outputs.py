#!/usr/bin/env python3
"""Run the CLI block of README.md and print a sha256 digest of every output.

Each command of the README's ``## CLI`` block (backslash continuations
joined) runs as ``python -m tensorpotts.cli`` in a fresh temporary directory,
against this checkout's ``src/``.  One line is printed per stdout and per file
the command writes there (its ``--out`` file and any companion table):

    <sha256>  <command name> <stdout | file name>

Two checkouts give equal lines exactly when their README outputs are
byte-identical.  Exits non-zero if any command fails.

    python scripts/readme_outputs.py
"""

import hashlib
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def readme_commands(text: str) -> list:
    """argv lists (without the program name) of the README's CLI block."""
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line)
        if words and words[0] == "tensorpotts":
            commands.append(words[1:])
    return commands


def main() -> int:
    commands = readme_commands((ROOT / "README.md").read_text())
    if not commands:
        print("no CLI commands found in README.md", file=sys.stderr)
        return 1
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    failed = 0
    for argv in commands:
        with tempfile.TemporaryDirectory() as tmp:
            run = subprocess.run([sys.executable, "-m", "tensorpotts.cli", *argv], cwd=tmp,
                                 env=env, capture_output=True)
            if run.returncode != 0:
                failed += 1
                print(f"FAILED ({run.returncode}): tensorpotts {shlex.join(argv)}\n"
                      f"{run.stderr.decode(errors='replace')}", file=sys.stderr)
                continue
            print(f"{hashlib.sha256(run.stdout).hexdigest()}  {argv[0]} stdout")
            for path in sorted(pathlib.Path(tmp).iterdir()):
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {argv[0]} {path.name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
