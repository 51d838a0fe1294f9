"""List the functions of src/stlfleet that the CLI commands never enter.

Runs these commands in this process under ``sys.settrace``: ``plan`` in
basic and attrition mode, ``monitor`` of the basic plan's trace, ``replay``
of the benchmark's ``disturbance(seed=1, op)`` schedules for ops 1, 2 and
7 and of ``BLADE_PUSH``, which skips a blade side, and ``routes``, all on
the bundled turbine. Then prints each function defined in src/stlfleet
that none of them called, with the line count of its body, and the total. The report is informational: the exit status is
0 whenever every command ran, whatever it found.

    python -B tools/unreached.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "stlfleet"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import TURBINE, disturbance, turbine_dict  # noqa: E402

from stlfleet.cli import main as cli_main  # noqa: E402

REPLAY_OPS = (1, 2, 7)
# drone 2 pushed 1.5 m at 4.5 s: its replan window, samples 90 to 138,
# re-inserts blade side 1
BLADE_PUSH = [{"time": 4.5, "drone": 2, "offset": [0, 1.5, 0]}]


def commands(out: Path):
    """(label, argv) of each command, in order; the monitor reads the basic plan."""
    scenario = str(ROOT / TURBINE)
    for mode in ("basic", "attrition"):
        yield f"plan {mode}", ["plan", "--scenario", scenario, "--mode", mode,
                               "--out", str(out / mode)]
    yield "monitor", ["monitor", "--scenario", scenario,
                      "--trace", str(out / "basic" / "trace.csv")]
    replays = [(f"op {op}", f"{op}", disturbance(turbine_dict(ROOT), 1, op))
               for op in REPLAY_OPS] + [("blade push", "_blade", BLADE_PUSH)]
    for label, tag, schedule in replays:
        pushes = out / f"disturbance{tag}.json"
        pushes.write_text(json.dumps(schedule))
        yield f"replay {label}", ["replay", "--scenario", scenario, "--disturbances",
                                  str(pushes), "--out", str(out / f"replay{tag}")]
    yield "routes", ["routes", "--scenario", scenario, "--out", str(out / "routes")]


def entered_code() -> set:
    """(file, first line) of every src/stlfleet code object the commands call."""
    entered = set()
    prefix = str(SRC)

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((Path(code.co_filename).resolve(), code.co_firstlineno))

    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in commands(Path(tmp)):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                sys.settrace(tracer)
                try:
                    code = cli_main(argv)
                finally:
                    sys.settrace(None)
            print(f"{label}: exit {code}")
    return entered


def functions(path: Path):
    """(qualified name, first line, body lines) of each function in ``path``;
    the first line is the first decorator's, as in the code object."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                body = child.end_lineno - child.body[0].lineno + 1
                yield scope + child.name, first, body
                yield from visit(child, f"{scope}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{scope}{child.name}.")
            else:  # a def may sit inside an if, a try or a with
                yield from visit(child, scope)

    yield from visit(ast.parse(path.read_text()), "")


def main() -> int:
    entered = entered_code()
    missed = [(path.name, first, name, body)
              for path in sorted(SRC.glob("*.py"))
              for name, first, body in functions(path)
              if (path.resolve(), first) not in entered]
    print(f"{len(missed)} functions of src/stlfleet never entered, "
          f"{sum(body for *_, body in missed)} body lines:")
    for module, first, name, body in missed:
        print(f"  {module}:{first}  {name}  ({body} line{'s' * (body != 1)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
