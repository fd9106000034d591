"""The functions of a package that no command enters, and their size.

    python tests/_unentered.py SRC GAMMA...

Runs every command of `test_hygiene.COMMANDS` at each GAMMA, as
`python -m qp3 --gamma=GAMMA ...`, in one fresh interpreter through
`_entered.py`, and prints each function under SRC, the directory that
holds the package, that none of the runs entered: its line count, file
and first line (that of its first decorator) and name, then the total.
A function nested in one that is listed is counted with it, not apart.
Neither interpreter writes bytecode, so the checkout is left as it was.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path


def unentered(src, entered):
    """(file relative to src, first line, name, line count) of each
    function under `src` that is not in `entered`, a set of (file, first
    line) pairs, and is not nested in one that is listed."""
    found = []

    def visit(node, rel):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                if (rel, first) not in entered:
                    found.append((rel, first, child.name, child.end_lineno - first + 1))
                    continue
            visit(child, rel)

    for path in sorted(Path(src).rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        visit(ast.parse(path.read_text()), rel)
    return found


def main():
    sys.dont_write_bytecode = True
    from test_hygiene import COMMANDS

    src, gammas = Path(sys.argv[1]).resolve(), sys.argv[2:]
    runs = [["-m", "qp3", f"--gamma={g}", *c] for g in gammas for c in COMMANDS]
    probe = subprocess.run(
        [sys.executable, "-B", str(Path(__file__).with_name("_entered.py")), str(src),
         json.dumps(runs)], capture_output=True, text=True, check=True)
    found = unentered(src, {(path, line) for path, line, _ in json.loads(probe.stdout)})
    for rel, first, name, lines in found:
        print(f"{lines:6d}  {rel}:{first} {name}")
    print(f"{sum(f[3] for f in found):6d}  lines in {len(found)} functions that no "
          f"command enters at {', '.join(gammas)}")


if __name__ == "__main__":
    main()
