"""Source hygiene: every name a qp3 module imports is used in it, every
function and class it defines is named somewhere else, every public
function is entered by a command or a demo, every key of its data files
is read by code a command enters, every cache it makes is bounded, and
one base class states the value-type contract."""

import ast
import json
import re
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qp3"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by import statements that the module never reads.

    A name counts as read if it appears as a load, as the base of an
    attribute access, or inside a string annotation such as "Polynomial".
    """
    tree = ast.parse(source)
    imported = {}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for note in annotations:
        for n in ast.walk(note):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used.update(m.id for m in ast.walk(ast.parse(n.value, mode="eval"))
                            if isinstance(m, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = ("from typing import List, Optional\nimport os\nimport os.path\n"
              "from .m import P, Q\n\n"
              "def f(x: \"P\") -> \"List[int]\":\n    return os.sep\n")
    assert unused_imports(source) == [(1, "Optional"), (4, "Q")]


def _runs_later(node):
    """The statements under `node` that importing the module does not run:
    a function's body, and the body of `if TYPE_CHECKING:`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node]
    if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
        return node.body
    return []


def eager_numpy_imports(source: str):
    """Lines of the statements that import numpy as soon as the module is
    imported.  numpy is about half of a cold `import qp3.cli`, and only the
    numeric cross-check needs it, so it is imported inside the functions
    that use it."""
    tree = ast.parse(source)
    later = {id(n) for node in ast.walk(tree) for top in _runs_later(node)
             for n in ast.walk(top)}
    lines = []
    for node in ast.walk(tree):
        if id(node) in later:
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_imported_lazily(path):
    assert eager_numpy_imports(path.read_text()) == []


def test_eager_numpy_import_is_reported():
    source = ("from typing import TYPE_CHECKING\nimport os, numpy as np\n"
              "if TYPE_CHECKING:\n    import numpy\nelse:\n"
              "    from numpy.linalg import norm\n"
              "def f():\n    import numpy as np\n    return np\n"
              "class C:\n    from numpy import pi\n"
              "    def g(self):\n        from numpy import e\n")
    assert eager_numpy_imports(source) == [2, 6, 11]


def unbounded_caches(source: str):
    """Lines that make a cache with no bound: `lru_cache(maxsize=None)`,
    `lru_cache(None)`, or functools' `cache`, which is the same thing.
    An unbounded memo grows for the life of the process, so every memo in
    qp3 names its bound."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            size = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "maxsize"), None)
            if (ast.unparse(node.func).split(".")[-1] == "lru_cache"
                    and isinstance(size, ast.Constant) and size.value is None):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "cache"
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            lines.append(node.lineno)
    return sorted(lines)


def unbounded_dict_memos(source: str):
    """Lines of module-level dicts that a function stores into by
    subscript, `NAME[key] = value`.  Such a dict is a hand-rolled memo:
    without eviction it grows for the life of the process, and with it,
    it still answers no `cache_info()`, so no counter sees its traffic.
    qp3 caches through `lru_cache` and `cached_under_limits` only."""
    tree = ast.parse(source)
    dicts = {}
    for node in tree.body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        if isinstance(value, ast.Dict) or (isinstance(value, ast.Call)
                                           and ast.unparse(value.func) == "dict"):
            for name in _defined_names(node):
                dicts[name] = node.lineno
    stored = {n.value.id for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              for n in ast.walk(node)
              if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)
              and isinstance(n.value, ast.Name) and n.value.id in dicts}
    return sorted(dicts[name] for name in stored)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    source = path.read_text()
    assert unbounded_caches(source) == []
    assert unbounded_dict_memos(source) == []


def test_unbounded_dict_memo_is_reported():
    source = ("from typing import Dict\nA = {}\nB: Dict[int, int] = {}\n"
              "C = dict()\nTABLE = {'x': 1}\nREGISTRY = {}\nREGISTRY['y'] = 2\n"
              "def f(k):\n    A[k] = B[k] = C[k] = TABLE[k] = 1\n"
              "    if len(B) > 8:\n        del B[next(iter(B))]\n"
              "    C.popitem()\n    local = {}\n    local[k] = 1\n"
              "    return local\n")
    assert unbounded_dict_memos(source) == [2, 3, 4, 5]


def test_unbounded_cache_is_reported():
    source = ("import functools\nfrom functools import cache, lru_cache\n"
              "@lru_cache(maxsize=None)\ndef f(x): return x\n"
              "@functools.lru_cache(None)\ndef g(x): return x\n"
              "@lru_cache(maxsize=64)\ndef h(x): return x\n"
              "@lru_cache\ndef k(x): return x\n"
              "@functools.cache\ndef m(x): return x\n")
    assert unbounded_caches(source) == [2, 3, 5, 11]


def frozen_contract_breaches(sources):
    """Where the classes of `sources` ({label: module text}) break the
    value-type contract: a class other than `_Frozen` that defines
    `__setattr__` or `__delattr__`, and a public class that declares
    `__slots__` but derives from `_Frozen` neither directly nor through
    another class of `sources`."""
    classes = {node.name: (label, node) for label, text in sources.items()
               for node in ast.walk(ast.parse(text)) if isinstance(node, ast.ClassDef)}

    def frozen(name):
        if name == "_Frozen":
            return True
        return name in classes and any(
            frozen(ast.unparse(base).split(".")[-1]) for base in classes[name][1].bases)

    breaches = []
    for name, (label, node) in classes.items():
        methods = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        if name != "_Frozen":
            breaches += [f"{label}: {name} defines {m}"
                         for m in sorted(methods & {"__setattr__", "__delattr__"})]
        slotted = any(isinstance(t, ast.Name) and t.id == "__slots__"
                      for item in node.body if isinstance(item, ast.Assign)
                      for t in item.targets)
        if slotted and not name.startswith("_") and not frozen(name):
            breaches.append(f"{label}: {name} has __slots__ but is no _Frozen")
    return sorted(breaches)


def test_only_the_frozen_base_refuses_set_and_del():
    assert frozen_contract_breaches({p.name: p.read_text() for p in MODULES}) == []


def test_frozen_contract_breach_is_reported():
    source = ("class _Frozen:\n    __slots__ = ()\n"
              "    def __setattr__(self, name, value):\n        pass\n"
              "class Value(_Frozen):\n    __slots__ = ('a',)\n"
              "class Child(Value):\n    __slots__ = ()\n"
              "class Loose:\n    __slots__ = ('a',)\n"
              "class _Private:\n    __slots__ = ('a',)\n"
              "class Own(m._Frozen):\n    def __delattr__(self, name):\n        pass\n")
    assert frozen_contract_breaches({"m.py": source}) == [
        "m.py: Loose has __slots__ but is no _Frozen", "m.py: Own defines __delattr__"]


def unread_parameters(source: str):
    """`function.parameter` for each parameter of a function or method
    that its body never reads.  Such a parameter is an option that does
    nothing.  Dunder methods, lambdas and a method's `self` or `cls` are
    exempt: a protocol or an override fixes the signature of the first
    and the last, and the arguments of a lambda may serve only as a cache
    key."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not re.fullmatch(r"__\w+__", node.name)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                v for v in (a.vararg, a.kwarg) if v]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{node.name}.{v.arg}" for v in params
                       if v.arg not in read | {"self", "cls"}]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_unread_parameter_is_reported():
    source = ("def f(a, b, *args, c=1, **kw):\n    return a + len(kw)\n"
              "class K:\n    def __exit__(self, *exc):\n        pass\n"
              "    def m(self, x):\n        return (lambda y, z: z)(0, x)\n"
              "    @classmethod\n    def k(cls, y):\n        return y\n"
              "def g(x, y):\n    def inner(z):\n        return y\n"
              "    x = 1\n    return inner\n")
    assert unread_parameters(source) == [
        "f.b", "f.c", "f.args", "g.x", "inner.z"]


def _own_functions(fn):
    """The functions defined in fn's body, not inside a nested function
    or class."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif not isinstance(node, ast.ClassDef):
            todo.extend(ast.iter_child_nodes(node))


def unread_nested_functions(source: str):
    """`function.inner` for each function defined inside a function that
    the enclosing function never reads outside inner's own body.  Such a
    closure is dead code: nothing can call it."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in _own_functions(node):
                own = {id(n) for n in ast.walk(inner)}
                if not any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                           and n.id == inner.name and id(n) not in own
                           for n in ast.walk(node)):
                    unread.append((inner.lineno, f"{node.name}.{inner.name}"))
    return [label for _, label in sorted(unread)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_nested_function_is_read(path):
    assert unread_nested_functions(path.read_text()) == []


def test_unread_nested_function_is_reported():
    source = ("def f():\n    def used():\n        return 1\n"
              "    def recursive(n):\n        return n and recursive(n - 1)\n"
              "    if used():\n        def in_block():\n            pass\n"
              "    class K:\n        def method(self):\n            pass\n"
              "    return K\n"
              "def g():\n    def inner():\n        def innermost():\n"
              "            return 0\n        return 1\n    return inner\n")
    assert unread_nested_functions(source) == [
        "f.recursive", "f.in_block", "inner.innermost"]


ROOT = SRC.parent.parent
WORDS = re.compile(r"\w+")


def _defined_names(node):
    """The names a top-level statement defines: a function or class, or
    the targets of an assignment, tuple targets included."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return []


def _definitions(tree):
    """(node, name, label) for each name a top-level statement defines,
    and for each non-dunder method of a top-level class, labelled
    Class.method."""
    for node in tree.body:
        for name in _defined_names(node):
            yield node, name, name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not re.fullmatch(r"__\w+__", item.name)):
                    yield item, item.name, f"{node.name}.{item.name}"


def unnamed_in(texts, modules):
    """The definitions of `modules` (see `_definitions`) that no text in
    `texts`, a {path: source} map, names outside the defining statement
    itself."""
    counts = Counter(w for text in texts.values() for w in WORDS.findall(text))
    unnamed = []
    for path in modules:
        lines = texts[path].splitlines()
        for node, name, label in _definitions(ast.parse(texts[path])):
            decorators = getattr(node, "decorator_list", [])
            first = min([node.lineno] + [d.lineno for d in decorators])
            own = WORDS.findall("\n".join(lines[first - 1:node.end_lineno]))
            if counts[name] == own.count(name):
                unnamed.append(f"{path.name}:{node.lineno} {label}")
    return unnamed


def _sources(root, *dirs):
    """{path: source} for every Python file under the given directories."""
    return {p: p.read_text() for d in dirs for p in sorted((root / d).rglob("*.py"))}


def unnamed_definitions():
    """Top-level functions, classes and assigned names of src/qp3, of
    the test oracles and of the printed evidence, and the non-dunder
    methods of their top-level classes, that no Python file in src, tests,
    demos or bench names outside the defining statement."""
    return unnamed_in(_sources(ROOT, "src", "tests", "demos", "bench"),
                      [*MODULES, ROOT / "tests" / "oracles.py", ROOT / "tests" / "printed.py"])


# The definitions of src/qp3 that only tests reach: no command or demo
# enters the functions, and no file in src, demos or bench names the
# rest.  Each stays for the claim its tests back.
TEST_ONLY_API = {
    "jacobian_smoothness_check": "every catalog component is smooth, so each "
                                 "printed kind holds",
    "point_on_line": "criterion 10d: a line joined from two points holds both",
    "psi2_on_pluecker": "psi2 sends L2 to L4 and L3 to L5 where gamma is a square",
    "gamma_sign_on_pluecker": "x2 -> -x2 sends the line scheme of A(gamma) to "
                              "that of A(-gamma)",
    "minor": "bench/tracing.py times the minors through it by name, until "
             "its span moves to all_minors",
    "radical_member": "bench/tracing.py spans it by name, until the benchmark "
                      "drops its span",
    "invert_mod": "bench/tracing.py spans it by name, until the benchmark "
                  "drops its span",
}


def named_only_by_tests(root, modules):
    """The labels of the definitions of `modules` that no Python file in
    src, demos or bench under `root` names outside the defining statement
    (see `unnamed_in`): API that only tests reach."""
    texts = _sources(root, "src", "demos", "bench")
    return [u.split(" ", 1)[1] for u in unnamed_in(texts, modules)]


def _public_functions(tree):
    """(first line, label) for each top-level function, and each method of
    a top-level class, whose name and whose class's name have no `_`
    prefix.  A decorated function starts at its first decorator."""
    for node in tree.body:
        items = [(node, node.name)] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            items += [(item, f"{node.name}.{item.name}") for item in node.body
                      if isinstance(item, ast.FunctionDef)]
        for fn, label in items:
            if not fn.name.startswith("_"):
                yield min([fn.lineno] + [d.lineno for d in fn.decorator_list]), label


@lru_cache(maxsize=4)
def _entered(src, runs_json):
    """(file relative to src, first line) of each function under `src`
    that the runs, a JSON list, enter: `tests/_entered.py` runs them in one
    fresh interpreter and records every call from before the first import."""
    probe = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("_entered.py")), str(src),
         runs_json], capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr
    return {(path, line) for path, line, _ in json.loads(probe.stdout)}


def never_entered(src, modules, runs):
    """The labels of the public functions and methods of `modules`, files
    under `src`, that none of `runs` enters (`_entered`)."""
    entered = _entered(src, json.dumps(runs))
    return [label for path in modules
            for line, label in _public_functions(ast.parse(path.read_text()))
            if (path.relative_to(src).as_posix(), line) not in entered]


# what the package ships: every command in text format at a generic gamma,
# the split line scheme (gamma^2 = 16) and the point scheme at gamma = 2
# (rho1 with double roots, gamma^2 = 4); RUNS adds every demo
COMMANDS = (["point-scheme"], ["line-scheme"], ["line-scheme", "--verify"],
            ["lines-through", "--symbolic"],
            *(["lines-through", "--point", p] for p in ("e1", "e2", "e3", "e4")),
            ["lines-through", "--numeric"])
COMMAND_RUNS = [*(["-m", "qp3", "--gamma=3/2+i", *c] for c in COMMANDS),
                ["-m", "qp3", "--gamma=4", "line-scheme", "--verify"],
                ["-m", "qp3", "--gamma=2", "point-scheme"]]
RUNS = [*COMMAND_RUNS, *([str(d)] for d in sorted((ROOT / "demos").glob("*.py")))]

# the engine's routines that append a variable t (the lift itself,
# Rabinowitsch's 1 - t*f and inverses by it), and radical membership by
# repeated squaring, which the point certificate replaced with membership
APPENDING = ("_append", "_rabinowitsch", "radical_member", "invert_mod")


def test_no_command_appends_a_variable(monkeypatch, capsys, fresh_caches):
    # every command at a generic gamma, at gamma^2 = 16 and at gamma^2 = 4
    # answers with all of them refused, in every qp3 module that holds
    # one; saturation is no engine routine at all
    from qp3 import cli, groebner

    def refuse(*args, **kwargs):
        raise AssertionError("a command appended a variable")

    assert not hasattr(groebner, "saturate")
    for name, mod in list(sys.modules.items()):
        if (name == "qp3" or name.startswith("qp3.")) and mod is not None:
            for attr in APPENDING:
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, refuse)
    for gamma in ("3/2+i", "4", "2"):
        for command in COMMANDS:
            assert cli.main([f"--gamma={gamma}", *command]) == cli.EXIT_OK, (gamma, command)
    capsys.readouterr()


# keys of a data file that are prose for its reader, not data
PROSE_KEYS = {"note"}


def unread_data_keys(src, runs):
    """`file:key` for each top-level key of a JSON file under `src` that no
    code the runs enter reads, prose keys aside.  A key is read where a
    function under `src` that the runs enter (`_entered`) subscripts with
    it; where that binds a keyword argument (a `FixtureSet` field), the
    field must be read too, as an attribute, by such a function."""
    entered = _entered(src, json.dumps(runs))
    code = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        code += [node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.FunctionDef) and (rel, min(
                     [node.lineno] + [d.lineno for d in node.decorator_list])) in entered]
    nodes = [n for tree in code for n in ast.walk(tree)]

    def key(n):
        return n.slice.value if (isinstance(n, ast.Subscript)
                                 and isinstance(n.slice, ast.Constant)) else None

    subscripted = set(map(key, nodes))
    fields = {key(n.value): n.arg for n in nodes if isinstance(n, ast.keyword)}
    attributes = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    return [f"{data.name}:{k}" for data in sorted(src.rglob("*.json"))
            for k in json.loads(data.read_text())
            if k not in PROSE_KEYS and (k not in subscripted
                                        or k in fields and fields[k] not in attributes)]


def test_every_shipped_data_key_is_read():
    # by a command: a key that only a demo reads is no package data
    assert unread_data_keys(SRC.parent, COMMAND_RUNS) == []


def test_unread_data_key_is_reported(tmp_path):
    # `kept` becomes a field that only a demo and a test read, and `never`
    # is not read at all; the prose key `note` is not reported
    files = {"src/m.py": ("import json\nfrom pathlib import Path\n"
                          "from typing import NamedTuple\n"
                          "class Data(NamedTuple):\n    used: int\n    kept: int\n"
                          "def load():\n"
                          "    raw = json.loads(Path(__file__).with_name('d.json').read_text())\n"
                          "    return Data(used=raw['used'], kept=raw['kept'])\n"
                          "def run():\n    print(load().used)\n"),
             "src/d.json": '{"note": "prose", "used": 1, "kept": 2, "never": 3}',
             "cmd.py": "from m import run\nrun()\n",
             "demos/d.py": "from m import load\nprint(load().kept)\n",
             "tests/t.py": "from m import load\nassert load().kept == 2\n"}
    _write_tree(tmp_path, files)
    runs = [[str(tmp_path / "cmd.py")], [str(tmp_path / "demos" / "d.py")]]
    assert unread_data_keys(tmp_path / "src", runs) == ["d.json:kept", "d.json:never"]


def test_defined_names_cover_assignments():
    source = ("A, (B, *C) = f()\nD: int = 1\nE.attr = F[G] = 2\n"
              "def h():\n    local = 3\nclass K:\n    pass\n")
    names = [n for node in ast.parse(source).body for n in _defined_names(node)]
    assert names == ["A", "B", "C", "D", "h", "K"]


def test_every_definition_is_named_elsewhere():
    assert unnamed_definitions() == []


def test_unnamed_method_is_reported():
    module = Path("m.py")
    texts = {module: ("class K:\n    def __init__(self):\n        self.x = 1\n"
                      "    def used(self):\n        return 1\n"
                      "    def unused(self):\n        return self.used()\n"
                      "    @property\n    def prop(self):\n        return 2\n"
                      "    def recursive(self, n):\n"
                      "        return n and self.recursive(n - 1)\n"
                      "def f():\n    return K().used()\n"),
             Path("t.py"): "from m import K, f\nK().prop\nf()\n"}
    assert unnamed_in(texts, [module]) == ["m.py:6 K.unused", "m.py:11 K.recursive"]


def test_unentered_function_is_reported(tmp_path):
    # a decorated function starts at its decorator, and a function nested in
    # a listed one counts with it
    from _unentered import unentered

    _write_tree(tmp_path, {"m.py": (
        "import functools\n"
        "def used():\n    def inner():\n        return 1\n    return 2\n"
        "@functools.lru_cache(maxsize=4)\n"
        "def cached():\n    def inner():\n        return 3\n    return inner\n"
        "class K:\n    def method(self):\n        return 4\n")})
    assert unentered(tmp_path, {("m.py", 2)}) == [
        ("m.py", 3, "inner", 2), ("m.py", 6, "cached", 5), ("m.py", 12, "method", 2)]


def test_test_only_api_is_allowlisted():
    found = {*named_only_by_tests(ROOT, MODULES), *never_entered(SRC.parent, MODULES, RUNS)}
    assert sorted(found - set(TEST_ONLY_API)) == [], "test-only, not allowlisted"
    assert sorted(set(TEST_ONLY_API) - found) == [], "stale allowlist entries"


def _write_tree(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(exist_ok=True)
        (root / name).write_text(text)


def test_name_only_tests_use_is_reported(tmp_path):
    files = {"src/m.py": ("def run():\n    return step()\n"
                          "def step():\n    return 1\n"
                          "def oracle():\n    return 2\n"),
             "demos/d.py": "from m import run\nrun()\n",
             "tests/t.py": "from m import oracle\nassert oracle() == 2\n"}
    _write_tree(tmp_path, files)
    module = tmp_path / "src" / "m.py"
    assert unnamed_in(_sources(tmp_path, "src", "demos", "tests"), [module]) == []
    assert named_only_by_tests(tmp_path, [module]) == ["oracle"]


def test_probe_reports_what_the_word_rule_misses(tmp_path):
    # `evaluate` is named in src but never called there, and `root` only
    # through the test-only `oracle`: the word rule passes both, and only
    # the calls show them; the decorated `cached` and the private
    # `_hidden` are not reported
    files = {"src/m.py": ("import functools\n"
                          "def run():\n"
                          "    # evaluate: named here, never called\n"
                          "    return K().step() + cached()\n"
                          "@functools.lru_cache(maxsize=1)\n"
                          "def cached():\n    return 1\n"
                          "def evaluate():\n    return 2\n"
                          "def oracle():\n    return root() + _hidden()\n"
                          "def root():\n    return 3\n"
                          "def _hidden():\n    return 4\n"
                          "class K:\n    def step(self):\n        return 5\n"
                          "    def unused(self):\n        return 6\n"),
             "demos/d.py": "from m import run\nrun()\n",
             "tests/t.py": ("from m import K, evaluate, oracle\n"
                            "assert evaluate() + oracle() + K().unused() == 15\n")}
    _write_tree(tmp_path, files)
    module = tmp_path / "src" / "m.py"
    assert named_only_by_tests(tmp_path, [module]) == ["oracle", "K.unused"]
    runs = [[str(tmp_path / "demos" / "d.py")]]
    assert never_entered(tmp_path / "src", [module], runs) == [
        "evaluate", "oracle", "root", "K.unused"]
