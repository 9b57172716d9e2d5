"""List the functions and methods of `src/infranil` that none of the
program's entry points call: the `zeta` CLI, the three benchmark workloads
(run and check, `--trace 0` and `--trace 1`), `tools/outputs_digest.py` and
`bench/smoke.py`.

    python3 tools/reach_census.py

Every entry point runs in a child process (and its own children) with a
`sys.setprofile` hook, loaded through a temporary `sitecustomize`, that
records each function of `src/infranil` it calls.  A function is listed
when no run called it, as `module.qualname  (line N)`.  Each benchmark run
lasts SECONDS = 3 seconds.  Every run must end with its expected exit
status (0, or 3 for the four CLI error exits); if one does not, nothing is
listed and the census exits 1 naming that run, since a run that failed
early would make everything it reaches look unreached.  Takes a few
minutes.  The names it lists, without their line numbers, are pinned in
`tools/reach_census.expected`:

    python3 tools/reach_census.py | cut -d' ' -f1 | diff - tools/reach_census.expected
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "infranil"
SECONDS = 3

HOOK = """
import atexit, os, sys, threading
_src, _out, _seen = os.environ["REACH_SRC"], os.environ["REACH_OUT"], set()
def _profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(_src):
        _seen.add(f"{os.path.basename(code.co_filename)}:{code.co_firstlineno}")
sys.setprofile(_profile)
threading.setprofile(_profile)
@atexit.register
def _dump():
    with open(os.path.join(_out, str(os.getpid())), "w") as fh:
        fh.write("\\n".join(_seen))
"""


def commands() -> list:
    """(command, expected exit status) of every run."""
    zeta = [sys.executable, "-m", "infranil.cli"]
    runs = [zeta + ["catalog"], zeta + ["catalog", "--json"], zeta + ["catalog", "--filter", "heis"]]
    for manifold in ("circle", "torus-2", "torus-3", "klein-bottle"):
        runs += [zeta + ["compute", "--manifold", manifold, "--json"],
                 zeta + ["compute", "--manifold", manifold]]
    runs += [zeta + ["verify-tables", "--samples", "1"],
             zeta + ["verify-tables", "--samples", "1", "--json"]]
    for workload in ("corpus", "random-maps", "screen"):
        for trace in ("0", "1"):
            runs.append([sys.executable, "bench/run.py", "--workload", workload,
                         "--seconds", str(SECONDS), "--trace", trace])
    runs += [[sys.executable, "tools/outputs_digest.py"], [sys.executable, "bench/smoke.py"]]
    errors = [  # constraint violations: exit 3
        zeta + ["compute", "--manifold", "torus-2", "--param", "m11=x"],
        zeta + ["compute", "--manifold", "no-such-manifold"],
        zeta + ["compute", "--manifold", "torus-2", "--kmax", "0"],
        zeta + ["verify-tables", "--samples", "-1"],
    ]
    return [(cmd, 0) for cmd in runs] + [(cmd, 3) for cmd in errors]


def defined() -> list:
    """(file name, first line, module.qualname, def line) of every function
    in src/infranil; the first line is a decorator's when there is one, as
    in co_firstlineno."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out.append((path.name, first, f"{path.stem}.{prefix}{child.name}", child.lineno))
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
        walk(ast.parse(path.read_text()), "")
    return out


def main() -> int:
    with tempfile.TemporaryDirectory() as hook, tempfile.TemporaryDirectory() as out:
        Path(hook, "sitecustomize.py").write_text(HOOK)
        env = dict(os.environ, REACH_SRC=str(SRC) + os.sep, REACH_OUT=out,
                   PYTHONPATH=os.pathsep.join([hook, str(ROOT / "src")]))
        for cmd, expected in commands():
            code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL).returncode
            if code != expected:
                run = " ".join(cmd[1:])
                print(f"reach_census: `{run}` exited {code}, not {expected}", file=sys.stderr)
                return 1
        reached = {line for p in Path(out).iterdir() for line in p.read_text().split("\n")}
    for name, first, qualname, line in defined():
        if f"{name}:{first}" not in reached:
            print(f"{qualname}  (line {line})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
