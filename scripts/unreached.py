#!/usr/bin/env python3
"""Print the lines of each src/cdlab function that no packaged run reaches.

Usage: python scripts/unreached.py

Runs the packaged configs (configs/*.json) in-process through
`cdlab.cli.main`, writing under a temporary directory that is removed
afterwards, and then tests/test_acceptance.py through pytest, with a
`sys.settrace` line tracer restricted to the files of src/cdlab.  It prints
one line per function (per code object: nested functions, lambdas and
generator expressions count on their own) with an executable line that never
ran:

    oprl.py kernel_diag (418): 423, 426, 432
    cli.py __init__ (38): never called

(file, name, first line of the code object: lines never run; the first line
tells same-named functions apart).
Executable lines are those the compiled code maps bytecode to (`co_lines`),
without the `def` line itself.  A line printed here is reached by no packaged
config and no acceptance criterion, only (if at all) by the other tests,
which is the test of ROADMAP aim 2 for code whose only caller is its own
test.  The unit is a line, so the untaken arm of a conditional expression
that shares its line with the taken one does not show.  Module and class
bodies are not reported.  The runs' own verdict output is suppressed; their
exit statuses go to stderr.  The trace about doubles the time of the runs
(8.6 s against 4.6 s on a 2-core Xeon VM).
"""

import contextlib
import inspect
import io
import pathlib
import sys
import tempfile
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cdlab"
sys.path.insert(0, str(ROOT / "src"))


def executable_lines(path):
    """{(name, first line): executable lines} of every function code
    object compiled from the file at path."""
    out = {}
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
            lines = {line for _, _, line in code.co_lines() if line is not None}
            out[(code.co_name, code.co_firstlineno)] = lines - {code.co_firstlineno}
    return out


class LineTracer:
    """Lines run per (file, name, first line) of the code under root."""

    def __init__(self, root):
        self.root = str(root)
        self.ran = {}

    def __call__(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.root):
            return None
        lines = self.ran.setdefault((code.co_filename, code.co_name, code.co_firstlineno), set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local


def ranges(lines):
    """'a-b, c' for the runs of consecutive integers in lines."""
    runs = []
    for n in sorted(lines):
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main():
    expected = {}
    for path in sorted(SRC.glob("*.py")):
        for (name, first), lines in executable_lines(path).items():
            expected[(str(path), name, first)] = lines
    tracer = LineTracer(SRC)
    statuses = []
    with tempfile.TemporaryDirectory() as out_root:
        sys.settrace(tracer)
        try:
            import pytest
            from cdlab.cli import main as cdlab_main

            with contextlib.redirect_stdout(io.StringIO()):
                for config in sorted((ROOT / "configs").glob("*.json")):
                    out = str(pathlib.Path(out_root) / config.stem)
                    statuses.append((config.name, cdlab_main(["run", "--config", str(config),
                                                              "--out", out])))
                statuses.append(("tests/test_acceptance.py", int(pytest.main(
                    ["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")]))))
        finally:
            sys.settrace(None)
    print("exit statuses: " + ", ".join(f"{name} {code}" for name, code in statuses),
          file=sys.stderr)
    for (file, name, first), lines in sorted(expected.items()):
        ran = tracer.ran.get((file, name, first))
        missing = lines - (ran or set())
        if ran is None:
            print(f"{pathlib.Path(file).name} {name} ({first}): never called")
        elif missing:
            print(f"{pathlib.Path(file).name} {name} ({first}): {ranges(missing)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
