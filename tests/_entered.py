"""Which functions of a package a set of runs enters.

    python tests/_entered.py SRC RUNS

SRC is the directory that holds the package; it goes first on sys.path.
RUNS is a JSON list of command lines, each as `python` would take it
without the interpreter: `["-m", "qp3", "--gamma=4", "point-scheme"]` or
`["demos/walkthrough.py"]`.  They run one after another in this one
process, their stdout discarded and their exit codes ignored, under a
`sys.setprofile` hook set before anything under SRC is imported, so code
that runs only at import counts too.  The script prints a JSON list of
[file relative to SRC, first line, name] for each function code object
under SRC that the runs entered; a decorated function's first line is
that of its first decorator.
"""

import contextlib
import io
import json
import runpy
import sys
from pathlib import Path


def main():
    src, runs = str(Path(sys.argv[1]).resolve()), json.loads(sys.argv[2])
    sys.path.insert(0, src)
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    for run in runs:
        sys.argv = run[1:] if run[0] == "-m" else run
        with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):
            if run[0] == "-m":
                runpy.run_module(run[1], run_name="__main__", alter_sys=True)
            else:
                runpy.run_path(run[0], run_name="__main__")
    sys.setprofile(None)
    print(json.dumps(sorted(
        (Path(c.co_filename).relative_to(src).as_posix(), c.co_firstlineno, c.co_name)
        for c in entered if Path(c.co_filename).is_relative_to(src))))


if __name__ == "__main__":
    main()
