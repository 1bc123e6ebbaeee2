"""Source hygiene: every name a library module, a test or a demo imports is
used in it, no library module imports a private name from another, every
module-level private function and class, and every public one the package
does not export, is named somewhere in the library, every definition, methods
included, is named by the library, the tests, the demos or the benchmark,
every module-level cache is bounded, no module calls the indented JSON
encoder or makes a generator without a seed, only `sympoly` touches a `SymPoly`'s slots and only its
constructor sets the terms, no module reads a private attribute that
another module defines, every module stays under the parser's token step,
and every criterion runs in exactly one suite."""

import ast
import inspect
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import diffres
from diffres import checks

SRC = Path(__file__).resolve().parent.parent / "src" / "diffres"
# __init__.py imports to re-export, so it is left out
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node):
    """Names read by an annotation, quoted ones included."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str):
    """The names bound by the imports of `source` that nothing reads."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return [name for name in imported if name not in used]


def private_imports(source: str):
    """The private names that `source` imports from a module of the package
    (a relative import or one from `diffres`)."""
    return [a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "diffres")
            for a in node.names if a.name.startswith("_")]


def unreferenced_definitions(sources, exported=None):
    """(module, name) of each module-level private function and class in
    `sources`, {module: source}, that no source names outside its own
    definition; with `exported`, a set of names, also of each public one
    not in it."""
    defined, named = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                owner = (module, top.name)
                if (not top.name.endswith("__") if top.name.startswith("_")
                        else exported is not None and top.name not in exported):
                    defined.append(owner)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else
                        node.name if isinstance(node, ast.alias) else None)
                if name is not None:
                    named.add((name, owner))
    return [(module, name) for module, name in defined
            if not any(n == name and owner != (module, name) for n, owner in named)]


def unbounded_caches(source: str):
    """Names of the functions of `source`, at module level or methods of a
    module-level class, that a `functools` cache decorates without an
    integer literal `maxsize`."""
    functions = []
    for top in ast.parse(source).body:
        body = top.body if isinstance(top, ast.ClassDef) else [top]
        functions += [f for f in body
                      if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = []
    for f in functions:
        for dec in f.decorator_list:
            call = dec if isinstance(dec, ast.Call) else None
            name = call.func if call else dec
            name = getattr(name, "id", getattr(name, "attr", None))
            if name not in ("lru_cache", "cache"):
                continue
            sizes = (call.args[:1] + [k.value for k in call.keywords
                                      if k.arg == "maxsize"]) if call else []
            if not (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
                    and type(sizes[0].value) is int):
                found.append(f.name)
    return found


def test_the_scan_finds_an_unbounded_cache():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "@lru_cache(maxsize=16)\ndef bounded(x): return x\n"
              "@functools.lru_cache(8)\ndef positional(x): return x\n"
              "@functools.lru_cache(maxsize=None)\ndef unbounded(x): return x\n"
              "@lru_cache\ndef implicit(x): return x\n"
              "class C:\n"
              "    @cache\n    def forever(self): return 1\n"
              "def per_call():\n"
              "    return lru_cache(maxsize=None)(abs)\n")
    assert unbounded_caches(source) == ["unbounded", "implicit", "forever"]


def test_every_module_level_cache_is_bounded():
    for path in sorted(SRC.glob("*.py")):
        assert unbounded_caches(path.read_text()) == [], path.name


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from typing import List, Tuple\n"
              "def f(x: 'List[int]') -> Tuple: return system.argv\n")
    assert unused_imports(source) == ["os"]


def test_the_scan_finds_a_private_import():
    source = ("from __future__ import annotations\n"
              "from ._private import public\n"
              "from .determinant import _bareiss, det_laplace\n"
              "from diffres.lp import _pivot\n"
              "from collections import _chain\n"
              "def f():\n"
              "    from . import _late\n")
    assert private_imports(source) == ["_bareiss", "_pivot", "_late"]


def test_no_library_module_imports_a_private_name():
    for path in sorted(SRC.glob("*.py")):
        assert private_imports(path.read_text()) == [], path.name


def test_the_scan_finds_an_unreferenced_private_function():
    sources = {"a": ("def _called(): pass\n"
                     "def _recursive(n): return _recursive(n - 1)\n"
                     "def _imported(): pass\n"
                     "def public(): return _called()\n"),
               "b": "from a import _imported\n"}
    assert unreferenced_definitions(sources) == [("a", "_recursive")]


def test_every_private_function_is_named_in_the_library():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_definitions(sources) == []


def test_the_scan_finds_an_unreferenced_public_definition():
    sources = {"a": ("class Exported: pass\n"
                     "class _Private: pass\n"
                     "class _Unused: pass\n"
                     "class Named(_Private): pass\n"
                     "class Dead:\n"
                     "    def method(self): return Dead()\n"
                     "def exported(): pass\n"
                     "def dead(): return dead()\n"
                     "def _private(): pass\n"
                     "def caller(x: Named): return _private()\n"),
               "b": "from a import caller\n"}
    assert unreferenced_definitions(sources, {"Exported", "exported"}) == [
        ("a", "_Unused"), ("a", "Dead"), ("a", "dead")]
    # without the exported names only private definitions are scanned
    assert unreferenced_definitions(sources) == [("a", "_Unused")]


def test_every_public_definition_is_exported_or_named_in_the_library():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    exported = {name for names in diffres._EXPORTS.values() for name in names}
    assert unreferenced_definitions(sources, exported) == []


ROOT = SRC.parent.parent
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names(tree):
    """Counts of the names that `tree` reads: identifiers, attributes,
    imported names, and the parts of each string constant made only of
    dotted identifiers (a `getattr` or `monkeypatch` target, an export
    table entry, a traced span); prose, docstrings among it, names nothing."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def dead_definitions(defining, naming):
    """(module, name) of each non-dunder module-level function or class,
    and method of a module-level class, in `defining`, {module: source},
    that the sources of `naming`, a list holding the defining ones too,
    name only inside the definition itself."""
    named = sum((_names(ast.parse(source)) for source in naming), Counter())
    found = []
    for module, source in defining.items():
        for top in ast.parse(source).body:
            nodes = [top] + (top.body if isinstance(top, ast.ClassDef) else [])
            for node in nodes:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                        and not (node.name.startswith("__")
                                 and node.name.endswith("__"))
                        and named[node.name] <= _names(node)[node.name]):
                    found.append((module, node.name))
    return found


def test_the_scan_finds_a_dead_definition():
    library = ("class Used:\n"
               "    def method(self): return self.helper()\n"
               "    def helper(self): return 1\n"
               "    def dead(self): return self.dead()\n"
               "    def __repr__(self): return 'Used'\n"
               "class Alone:\n"
               "    def make(self): return Alone()\n"
               "def tested(): pass\n"
               "def patched(): pass\n"
               "def traced(): pass\n"
               "def prose():\n"
               "    '''Not tested(), only named in prose.'''\n"
               "def __getattr__(name): pass\n")
    test = ("from lib import Used, tested\n"
            "# prose() in a comment\n"
            "def test(monkeypatch):\n"
            "    monkeypatch.setattr(lib, 'patched', None)\n"
            "    assert Used().method() and 'lib.traced' and 'not prose'\n")
    assert dead_definitions({"lib": library}, [library, test]) == [
        ("lib", "dead"), ("lib", "Alone"), ("lib", "make"), ("lib", "prose")]


def test_no_definition_is_dead():
    """Every definition of the library is named by the library, the tests,
    the demos or the benchmark."""
    naming = [p.read_text() for top in ("src", "tests", "demos", "bench")
              for p in sorted((ROOT / top).rglob("*.py"))]
    defining = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_definitions(defining, naming) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert unused_imports((SRC / f"{module}.py").read_text()) == []


@pytest.mark.parametrize("path", [f"{top}/{p.name}" for top in ("tests", "demos")
                                  for p in sorted((ROOT / top).glob("*.py"))])
def test_every_name_a_test_or_demo_imports_is_used(path):
    assert unused_imports((ROOT / path).read_text()) == []


def indented_json_calls(source: str):
    """Line numbers of the calls in `source` of a `dumps` or `dump` with an
    `indent` argument: the indented encoder runs in pure Python, and the CLI
    writes every document through `output.dumps` instead."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None))
                  in ("dumps", "dump")
                  and any(k.arg == "indent" for k in node.keywords))


def test_the_scan_finds_an_indented_json_call():
    source = ("import json\n"
              "from json import dumps\n"
              "a = json.dumps({}, indent=2)\n"
              "b = json.dumps({})\n"
              "c = dumps([], sort_keys=True,\n"
              "          indent=None)\n"
              "json.dump({}, open('f', 'w'), indent=4)\n"
              "d = 'json.dumps(x, indent=2), in a string'\n")
    assert indented_json_calls(source) == [3, 5, 7]


def test_no_library_module_calls_the_indented_json_encoder():
    for path in sorted(SRC.glob("*.py")):
        assert indented_json_calls(path.read_text()) == [], path.name


def unseeded_generators(source: str):
    """Line numbers of the calls in `source` of a `Random` with no seed, or
    with None: such a generator seeds itself from the operating system, and
    two runs draw differently."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None))
                  == "Random"
                  and all(isinstance(a, ast.Constant) and a.value is None
                          for a in node.args + [k.value for k in node.keywords]))


def test_the_scan_finds_an_unseeded_generator():
    source = ("import random\n"
              "from random import Random\n"
              "a = random.Random()\n"
              "b = random.Random(0)\n"
              "c = Random(\n"
              "    None)\n"
              "d = Random(x=None)\n"
              "e = random.Random(seed * 7 + 1)\n"
              "f = 'random.Random(), in a string'\n")
    assert unseeded_generators(source) == [3, 5, 7]


def test_no_library_module_draws_from_an_unseeded_generator():
    for path in sorted(SRC.glob("*.py")):
        assert unseeded_generators(path.read_text()) == [], path.name


SYMPOLY_SLOTS = ("_terms", "_text")
DICT_WRITES = ("clear", "pop", "popitem", "setdefault", "update")


def sympoly_slot_writes(sources):
    """(module, line) of each touch of a `SymPoly` slot outside `sympoly`,
    and of each write to `._terms` (an assignment, a deletion, an item set or
    a mutating dict method) outside `SymPoly.__init__`, in `sources`,
    {module: source}: a value keeps its rendered text, which is right only
    while its terms never change after construction."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        parent = {id(child): node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        init = {id(n) for top in tree.body if module == "sympoly"
                and isinstance(top, ast.ClassDef) and top.name == "SymPoly"
                for f in top.body if getattr(f, "name", None) == "__init__"
                for n in ast.walk(f)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr in SYMPOLY_SLOTS):
                continue
            up = parent[id(node)]
            written = node.attr == "_terms" and id(node) not in init and (
                not isinstance(node.ctx, ast.Load)
                or isinstance(up, ast.Subscript) and up.value is node
                and not isinstance(up.ctx, ast.Load)
                or isinstance(up, ast.Attribute) and up.attr in DICT_WRITES)
            if module != "sympoly" or written:
                found.append((module, node.lineno))
    return sorted(set(found))


def test_the_scan_finds_a_sympoly_slot_written_or_touched_outside():
    sympoly = ("class SymPoly:\n"
               "    def __init__(self, terms):\n"
               "        self._terms = dict(terms)\n"
               "        self._text = None\n"
               "    def render(self):\n"
               "        self._text = str(len(self._terms))\n"
               "        return self._text\n"
               "    def scale(self, k):\n"
               "        self._terms = {m: k * c for m, c in self._terms.items()}\n"
               "    def drop(self, m):\n"
               "        del self._terms[m]\n"
               "        self._terms.pop(m, None)\n"
               "def bump(p, m):\n"
               "    p._terms[m] += 1\n"
               "    return p._terms.get(m)\n")
    other = ("def peek(p):\n"
             "    return len(p._terms), p._text\n"
             "def terms(p):\n"
             "    return p.terms()\n")
    assert sympoly_slot_writes({"sympoly": sympoly, "matrices": other}) == [
        ("matrices", 2), ("sympoly", 9), ("sympoly", 11), ("sympoly", 12),
        ("sympoly", 14)]


def test_only_the_constructor_sets_a_sympolys_terms():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert sympoly_slot_writes(sources) == []


# the public methods and attributes of a named tuple
NAMEDTUPLE_API = ("_asdict", "_field_defaults", "_fields", "_make", "_replace")


def private_attribute_reads(sources):
    """(module, line) of each read of `x._name` in `sources`, {module:
    source}, where the module's own source does not define `_name` as a
    def, a class, a `__slots__` entry or an assigned attribute: a private
    name is read only by the module that owns it.  Dunder names and the
    named-tuple API are left out."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        defined = set(NAMEDTUPLE_API)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                defined.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__slots__" for t in node.targets):
                defined |= {c.value for c in ast.walk(node.value)
                            if isinstance(c, ast.Constant) and isinstance(c.value, str)}
        found += [(module, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and node.attr.startswith("_")
                  and not (node.attr.startswith("__") and node.attr.endswith("__"))
                  and node.attr not in defined]
    return sorted(found)


def test_the_scan_finds_a_private_attribute_read_across_modules():
    owner = ("class Matrix:\n"
             "    __slots__ = ('_rows',)\n"
             "    def _head(self): return self._rows\n"
             "    def width(self): return len(self._cols)\n"
             "def _helper(m): return m._head(), m._rows\n")
    reader = ("import argparse, owner\n"
              "def show(m, p):\n"
              "    p._matcher = None\n"
              "    return m._head(), m._rows, owner._helper(m)\n"
              "def again(m, p):\n"
              "    return m.__class__, m.__len__(), p._matcher, p._other\n"
              "def point(t): return t._replace(x=0), t._fields\n"
              "class Local:\n"
              "    def __init__(self): self._cache = {}\n"
              "    def get(self): return self._cache\n")
    assert private_attribute_reads({"owner": owner, "reader": reader}) == [
        ("owner", 4), ("reader", 4), ("reader", 4), ("reader", 4),
        ("reader", 6)]


def test_no_library_module_reads_a_private_attribute_of_another():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert private_attribute_reads(sources) == []


# CPython's parser grows its token array in powers of two: a module of 4097
# tokens or more peaks about 0.23 MB higher while it compiles than one of
# 4096, which every benchmark set-up pays for `cli.py` (README, output layer)
TOKEN_STEP = 4096


def significant_tokens(source: str) -> int:
    """The tokens of `source`, not counting comments, blank lines and the
    encoding token."""
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    return sum(t.type not in skip for t in
               tokenize.tokenize(io.BytesIO(source.encode()).readline))


def test_the_count_leaves_out_comments_and_blank_lines():
    # NAME OP NUMBER NEWLINE, twice, then ENDMARKER
    assert significant_tokens("# note\nx = 1  # one\n\n\ny = 'a # b'\n") == 9


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_every_module_stays_under_the_parsers_token_step(module):
    assert significant_tokens((SRC / f"{module}.py").read_text()) <= TOKEN_STEP


def criteria_not_run_once(namespace, suites):
    """The public `check_*` functions of `namespace` that the suite table
    `suites` does not run exactly once."""
    run = [criterion for _, _, criterion in suites.values()]
    return [name for name, f in namespace.items()
            if name.startswith("check_") and inspect.isfunction(f)
            and run.count(f) != 1]


def test_the_scan_finds_a_criterion_not_run_once():
    def check_twice(spec, seed): pass
    def check_never(spec, seed): pass
    def check_once(spec, seed): pass
    namespace = {"check_twice": check_twice, "check_never": check_never,
                 "check_once": check_once, "CHECK_LIMIT": 3}
    suites = {"a": ("a", (None,), check_twice),
              "b": ("b", ((1, 1),), check_twice),
              "c": ("c", ((2, 2),), check_once)}
    assert criteria_not_run_once(namespace, suites) == ["check_twice",
                                                        "check_never"]


def test_every_criterion_runs_in_exactly_one_suite():
    assert criteria_not_run_once(vars(checks), checks.SUITES) == []
    names = [name for name, _, _ in checks.SUITES.values()]
    assert len(set(names)) == len(names)
