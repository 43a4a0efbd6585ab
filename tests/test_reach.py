"""The reach map: the functions of ``src/tradelab`` that no run calls.

A fresh interpreter imports the package and runs ``harness.run`` on every
packaged scenario and on ``tests/inputs/routed_day.ini`` under
``sys.setprofile``. Each function it never entered must be listed in
``tests/unreached.txt`` with a one-line reason, and no listed function may
be entered. So a change that puts code on a run's path, or adds code that no
run calls, updates the list in the same commit.

Python 3.10 code objects carry no qualified name, so each one is matched to
its ``def`` through the file and its first line (a decorator's line when
decorated), which ``ast`` reads off the source.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tradelab"
UNREACHED = ROOT / "tests" / "unreached.txt"
RUNS = [*sorted((ROOT / "scenarios").glob("*.ini")), ROOT / "tests" / "inputs" / "routed_day.ini"]

# argv: the output root, then the scenario files; prints "file|first line|name"
# for each code object entered after the profiler was set, imports included
PROBE = """
import sys
from pathlib import Path
codes = set()
sys.setprofile(lambda frame, event, arg: codes.add(frame.f_code) if event == "call" else None)
from tradelab import harness
from tradelab.scenario import load_scenario
for i, path in enumerate(sys.argv[2:]):
    harness.run(load_scenario(path), Path(sys.argv[1]) / str(i))
sys.setprofile(None)
print("\\n".join(f"{c.co_filename}|{c.co_firstlineno}|{c.co_name}" for c in codes))
"""


def package_functions() -> dict[tuple[Path, int, str], str]:
    """(file, first line, name) -> "module.Class.function", for every def in the package."""
    out = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(path, first, child.name)] = qualname
                visit(child, path, qualname)
            else:   # a def inside an if, with or try block
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(), path.stem)
    return out


def reached(functions: dict, tmp_path: Path) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path), *map(str, RUNS)],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True,
                          timeout=300)
    names = set()
    for line in done.stdout.splitlines():
        filename, first, name = line.rsplit("|", 2)
        names.add(functions.get(((ROOT / filename).resolve(), int(first), name)))
    return names - {None}


def listed() -> dict[str, str]:
    entries = {}
    for line in UNREACHED.read_text().splitlines():
        name, _, reason = line.partition(" ")
        assert reason.strip(), f"{UNREACHED.name}: {name} has no reason"
        assert name not in entries, f"{UNREACHED.name}: {name} is listed twice"
        entries[name] = reason.strip()
    return entries


def test_every_unreached_function_is_listed_and_no_listed_one_is_reached(tmp_path):
    functions = package_functions()
    every = set(functions.values())
    hit = reached(functions, tmp_path)
    unreached, names = every - hit, listed()
    problems = [f"reached but listed: {n}" for n in sorted(names.keys() & hit)]
    problems += [f"unreached and not listed: {n}" for n in sorted(unreached - names.keys())]
    problems += [f"listed but not a function: {n}" for n in sorted(names.keys() - every)]
    assert not problems, "\n".join(problems)
