"""Write what each command of tools/unreached.py produces, for a byte diff.

Runs the same commands in this process, in order, with their outputs
under OUT: each command's artifact directory, and ``OUT/<command>.out``
holding its stdout and then its exit code. Every ``timings.json`` is
dropped, and OUT's own path is masked as ``<OUT>`` in every file. Then
prints one sha256 per file. Two checkouts produce the same bytes exactly
when ``diff -r`` of their OUT directories is empty:

    python -B tools/artifacts.py OUT
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from unreached import cli_main, commands


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    for label, command in commands(out):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(command)
        (out / f"{label.replace(' ', '_')}.out").write_text(f"{stdout.getvalue()}exit {code}\n")
    for path in sorted(out.rglob("*")):
        if path.name == "timings.json":
            path.unlink()
        elif path.is_file():
            path.write_bytes(path.read_bytes().replace(str(out).encode(), b"<OUT>"))
            print(hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
