#!/usr/bin/env python3
"""Repo lint: nothing in ``src/`` that only tests reach.

Every public function, class and method under ``src/`` needs a consumer
outside ``tests/``.  The gate builds a name-reference graph over the
package and walks it from the roots a user (or CI) actually runs:

- the CLI entry point, ``repro.cli.main``;
- the module-level statements of every ``src/`` module (registries,
  import-time tables) — but not ``__all__`` and not import statements, so
  a re-export in an ``__init__.py`` is not a consumer;
- every ``.py`` file under ``benchmarks/``, ``examples/`` and ``tools/``;
- the python snippets embedded in ``.github/workflows/ci.yml``.

Top-level names resolve through imports (re-export chains included).  A
method counts as reached when its class is reached and its name is used
as an attribute — or as an identifier-shaped string, for ``getattr`` —
anywhere in reached code.  The rule is conservative: a common method name
can keep a dead method alive, but a live one is never flagged.

Findings are every public definition the walk does not reach, plus every
private one that nothing references at all (not even a test), plus --
one level down -- every defaulted parameter of a reached public function
or method, and every defaulted field of a public frozen dataclass, that
no call in a root or a reached body passes (:class:`Params` says what
counts as passing; it can miss a dead parameter, never flag a live one).
Names kept on purpose go in ``tools/consumer_waivers.txt`` as
``name: reason`` or ``func(param): reason`` (a module or class name
waives everything under it, fields included).  A waived name is a root
itself; a waiver that no longer matches a finding is stale and fails the
gate.

Run as ``python tools/lint_consumers.py [src]``; exits non-zero and prints
``path:line: finding`` for each violation.  The test suite runs it over
``src/`` so CI enforces it.
"""

from __future__ import annotations

import ast
import builtins
import re
import sys
import textwrap
from dataclasses import dataclass, field
from pathlib import Path

ENTRY_POINTS = ("repro.cli.main",)
ROOT_DIRS = ("benchmarks", "examples", "tools")
CI_WORKFLOW = ".github/workflows/ci.yml"
WAIVER_FILE = "tools/consumer_waivers.txt"
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_HEREDOC = re.compile(r"<<-?\s*'?\"?(\w+)'?\"?\s*$")
_GENERICS = {"Callable", "Optional", "Union", "Type", "type", "list", "dict", "tuple", "set",
             "Sequence", "Mapping", "Iterable", "Iterator", "ClassVar"}


@dataclass
class Definition:
    qualname: str
    kind: str  # "function" | "class" | "method"
    path: Path
    node: ast.AST
    module: "Module"
    owner: str | None = None  # the class of a method (or nested class)
    methods: list[str] = field(default_factory=list)  # a class's members

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[1]

    @property
    def private(self) -> bool:
        return self.name.startswith("_") and not self.name.endswith("__")


@dataclass
class Module:
    name: str
    path: Path
    tree: ast.Module
    package: str
    bindings: dict[str, str] = field(default_factory=dict)


def _import_bindings(nodes, package: str) -> dict[str, str]:
    """Local name -> dotted target for every import statement in ``nodes``."""
    bindings: dict[str, str] = {}
    for node in nodes:
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    if alias.asname:
                        bindings[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        bindings[top] = top
            elif isinstance(stmt, ast.ImportFrom):
                base = stmt.module or ""
                if stmt.level:
                    parts = package.split(".")[: len(package.split(".")) - stmt.level + 1]
                    base = ".".join(parts + ([base] if base else []))
                for alias in stmt.names:
                    bindings[alias.asname or alias.name] = f"{base}.{alias.name}"
    return bindings


class Index:
    """Every definition under a source root, and a resolver over imports."""

    def __init__(self, src: Path) -> None:
        self.modules: dict[str, Module] = {}
        self.defs: dict[str, Definition] = {}
        for path in sorted(src.rglob("*.py")):
            parts = list(path.relative_to(src).with_suffix("").parts)
            is_package = parts[-1] == "__init__"
            if is_package:
                parts.pop()
            name = ".".join(parts)
            package = name if is_package else name.rpartition(".")[0]
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            module = Module(name, path, tree, package)
            self.modules[name] = module
            module.bindings = _import_bindings(
                [s for s in tree.body if not isinstance(s, (ast.FunctionDef, ast.ClassDef))],
                package,
            )
            for stmt in tree.body:
                self._add(module, stmt, name, None)

    def _add(self, module: Module, stmt, scope: str, owner: Definition | None) -> None:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        qualname = f"{scope}.{stmt.name}"
        if owner is None:
            module.bindings[stmt.name] = qualname
        if isinstance(stmt, ast.ClassDef):
            kind = "class"
        else:
            kind = "function" if owner is None else "method"
        definition = Definition(qualname, kind, module.path, stmt, module,
                                owner.qualname if owner else None)
        self.defs[qualname] = definition
        if owner is not None:
            owner.methods.append(qualname)
        if kind == "class":
            for child in stmt.body:
                self._add(module, child, qualname, definition)

    def resolve(self, dotted: str, depth: int = 0) -> str | None:
        """The definition or module a dotted import target names.

        A package attribute bound in its ``__init__`` wins over a
        submodule of the same name, as it does at run time.
        """
        if dotted in self.defs:
            return dotted
        base, _, attr = dotted.rpartition(".")
        owner = self.resolve(base, depth + 1) if base and depth < 20 else None
        if owner in self.modules:
            target = self.modules[owner].bindings.get(attr)
            if target is not None and target != dotted:
                resolved = self.resolve(target, depth + 1)
                if resolved is not None:
                    return resolved
        if owner is not None and f"{owner}.{attr}" in self.defs:
            return f"{owner}.{attr}"
        return dotted if dotted in self.modules else None


class _Scanner(ast.NodeVisitor):
    """Collects the definitions one body references, the attribute names
    (and identifier-shaped strings) it uses, and its calls.  A definition
    or attribute named anywhere but a call's callee position *escapes*:
    it may be called later through a registry or a callback."""

    def __init__(self, index: Index, bindings: dict[str, str]) -> None:
        self.index = index
        self.bindings = bindings
        self.refs: set[str] = set()
        self.attrs: set[str] = set()
        self.calls: list[ast.Call] = []
        self.escaped: set[str] = set()  # qualnames and bare attribute names
        self._inert: set[int] = set()  # callees and annotations
        self.stored: dict[str, set[str]] = {}  # attribute -> definitions held in it

    def quiet(self, *nodes: ast.AST | None) -> None:
        """Names under ``nodes`` are used, but do not escape."""
        for node in nodes:
            if node is not None:
                self._inert.update(id(n) for n in ast.walk(node))

    def _chain(self, node: ast.AST) -> list[str] | None:
        if isinstance(node, ast.Name):
            return [node.id]
        if isinstance(node, ast.Attribute):
            base = self._chain(node.value)
            return None if base is None else base + [node.attr]
        return None

    def resolve_chain(self, chain: list[str]) -> tuple[str | None, bool]:
        """The definition a dotted name resolves to, and whether its root
        is bound by an import at all."""
        target = self.bindings.get(chain[0])
        if target is None:
            return None, False
        resolved: str | None = None
        for attr in [None, *chain[1:]]:
            if attr is not None:
                target = f"{target}.{attr}"
            resolved = self.index.resolve(target)
            if resolved is None:
                return None, True
            if resolved in self.index.defs:
                self.refs.add(resolved)
            target = resolved
        return (resolved if resolved in self.index.defs else None), True

    def _load(self, node: ast.AST, chain: list[str]) -> None:
        resolved, _ = self.resolve_chain(chain)
        if id(node) in self._inert or not isinstance(node.ctx, ast.Load):
            return
        if resolved is not None:
            self.escaped.add(resolved)
        elif len(chain) > 1:  # ``obj.method`` as a value: a bound method
            self.escaped.add(chain[-1])

    def visit_Name(self, node: ast.Name) -> None:
        self._load(node, [node.id])

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.attrs.add(node.attr)
        chain = self._chain(node)
        if chain is not None:
            self._load(node, chain)
        else:
            if id(node) not in self._inert:
                self.escaped.add(node.attr)
            self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self.calls.append(node)
        self._inert.add(id(node.func))
        for k in node.keywords:  # ``ModelInfo(builder=build_x)``: held in ``.builder``
            self._store(k.arg, k.value)
        self.generic_visit(node)

    def _store(self, attr: str | None, value: ast.AST) -> None:
        """Record what ``attr`` may hold: a definition, ``obj.method`` by
        name, a lambda (its calls are scanned where it is written), or
        anything else (``?``: calling the attribute is opaque)."""
        if attr is None:
            return
        chain = self._chain(value)
        held = "?"
        if isinstance(value, ast.Lambda):
            held = "<lambda>"
        elif chain is not None:
            held = self.resolve_chain(chain)[0] or (chain[-1] if len(chain) > 1 else "?")
        self.stored.setdefault(attr, set()).add(held)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Attribute):
                self._store(target.attr, node.value)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = node.args
        self.quiet(node.returns, *(a.annotation for a in [
            *args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg] if a))
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if _tail(node.value) in _GENERICS:  # a type alias: ``Callable[[Ncore], None]``
            self.quiet(node.slice)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.quiet(node.annotation)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and _IDENTIFIER.match(node.value):
            self.attrs.add(node.value)


def scan(index: Index, nodes, bindings: dict[str, str], package: str = "") -> _Scanner:
    """Scan ``nodes`` with the module scope ``bindings`` plus their own
    (function-local) imports."""
    scanner = _Scanner(index, {**bindings, **_import_bindings(nodes, package)})
    for node in nodes:
        scanner.visit(node)
    return scanner


def _own_nodes(definition: Definition) -> list[ast.AST]:
    """What reaching a definition executes: a function's whole node; a
    class's decorators, bases and non-method body (methods reach lazily)."""
    node = definition.node
    if not isinstance(node, ast.ClassDef):
        return [node]
    return [*node.decorator_list, *node.bases, *node.keywords,
            *(s for s in node.body
              if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))]


def _module_level(module: Module) -> list[ast.AST]:
    """Import-time statements that count as consumers: not defs, not
    imports (re-exports), not ``__all__``."""
    nodes = []
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                             ast.Import, ast.ImportFrom)):
            continue
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                continue
        nodes.append(stmt)
    return nodes


def _ci_snippets(workflow: Path) -> list[str]:
    """Python heredocs (``python - <<'PY'``) embedded in a CI workflow."""
    snippets: list[str] = []
    lines = workflow.read_text(encoding="utf-8").splitlines()
    i = 0
    while i < len(lines):
        match = _HEREDOC.search(lines[i]) if "python" in lines[i] else None
        i += 1
        if match is None:
            continue
        body: list[str] = []
        while i < len(lines) and lines[i].strip() != match.group(1):
            body.append(lines[i])
            i += 1
        snippets.append(textwrap.dedent("\n".join(body)))
    return snippets


def _python_files(repo: Path, dirs) -> list[Path]:
    return [path for d in dirs if (repo / d).is_dir() for path in sorted((repo / d).rglob("*.py"))]


def _file_scan(index: Index, source: str, name: str) -> _Scanner:
    """A root or test file: everything in it, its own imports the scope."""
    return scan(index, [ast.parse(source, name)], {})


class Reach:
    """The fixpoint walk from a set of root scans."""

    def __init__(self, index: Index) -> None:
        self.index = index
        self.reached: set[str] = set()
        self.attrs: set[str] = set()
        self.by_method_name: dict[str, list[str]] = {}
        for definition in index.defs.values():
            if definition.owner is not None:
                self.by_method_name.setdefault(definition.name, []).append(definition.qualname)
        self.work: list[str] = []
        self.scans: list[tuple[_Scanner, str | None]] = []  # (body, its class)

    def add_scan(self, scanner: _Scanner) -> None:
        for attr in scanner.attrs - self.attrs:
            self.attrs.add(attr)
            for qualname in self.by_method_name.get(attr, ()):
                if self.index.defs[qualname].owner in self.reached:
                    self.mark(qualname)
        for qualname in scanner.refs:
            self.mark(qualname)

    def mark(self, qualname: str) -> None:
        if qualname in self.reached:
            return
        self.reached.add(qualname)
        self.work.append(qualname)
        definition = self.index.defs[qualname]
        for method in definition.methods:
            name = self.index.defs[method].name
            if (name.startswith("__") and name.endswith("__")) or name in self.attrs:
                self.mark(method)

    def run(self) -> set[str]:
        while self.work:
            definition = self.index.defs[self.work.pop()]
            module = definition.module
            body = scan(self.index, _own_nodes(definition), module.bindings, module.package)
            self.scans.append((body, definition.owner))
            self.add_scan(body)
        return self.reached


# -- Parameters: every defaulted parameter needs a root that passes it --

ALL = "*"  # passed by a ``**mapping`` of unknown keys: stands for every parameter
_BUILTINS = frozenset(dir(builtins))
_NOT_ESCAPING = {"staticmethod", "classmethod", "property", "setter", "dataclass",
                 "cached_property", "abstractmethod", "wraps", "cache", "lru_cache"}


def _tail(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


@dataclass
class Signature:
    positional: list[str]        # in order, ``self`` / ``cls`` dropped
    names: set[str]              # every parameter a keyword can name
    defaulted: dict[str, int]    # parameter -> line
    kwarg: str | None = None     # the ``**kwargs`` parameter


def _signature(definition: Definition) -> Signature | None:
    """A function's parameters, or a frozen dataclass's ``__init__``
    fields; None for any other class."""
    node = definition.node
    if isinstance(node, ast.ClassDef):
        if not any(isinstance(d, ast.Call) and _tail(d.func) == "dataclass" and any(
                k.arg == "frozen" and getattr(k.value, "value", False) for k in d.keywords)
                for d in node.decorator_list):
            return None
        sig = Signature([], set(), {})
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name) \
                    or "ClassVar" in ast.unparse(stmt.annotation):
                continue
            value = stmt.value
            if isinstance(value, ast.Call) and _tail(value.func) == "field":
                keywords = {k.arg for k in value.keywords}
                if "init" in keywords:
                    continue
                value = value if keywords & {"default", "default_factory"} else None
            sig.positional.append(stmt.target.id)
            if value is not None:
                sig.defaulted[stmt.target.id] = stmt.lineno
        sig.names = set(sig.positional)
        return sig
    args = node.args
    positional = args.posonlyargs + args.args
    defaulted = {a.arg: a.lineno for a in positional[len(positional) - len(args.defaults):]}
    defaulted.update((a.arg, a.lineno) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d)
    if definition.owner is not None and "staticmethod" not in {
            _tail(d) for d in node.decorator_list}:
        positional = positional[1:]
    return Signature([a.arg for a in positional],
                     {a.arg for a in positional + args.kwonlyargs}, defaulted,
                     args.kwarg.arg if args.kwarg else None)


class Params:
    """Which parameters the calls in reached code pass.

    A call passes its keywords and its first ``n`` positional parameters
    to every definition it may call: the one its callee resolves to
    through imports, else every function or method of the callee's name.
    A class call passes to its ``__init__`` (or a base's) and its frozen
    dataclass fields; ``replace(obj, f=...)`` passes field ``f`` of every
    frozen dataclass.  A call through an attribute that holds a stored
    definition (``ModelInfo(builder=build_x)`` then ``self.builder()``)
    passes to what was stored.  Any other callee no definition is named
    by — a parameter, a subscript, a data attribute — is *opaque*: it
    passes to every definition that escaped as a value.  Keywords that
    reach a ``**kwargs`` parameter travel on through each call that
    forwards it, and a ``**mapping`` of unknown keys passes everything.
    """

    def __init__(self, index: Index) -> None:
        self.index = index
        self.sigs: dict[str, Signature] = {}
        self.by_name: dict[str, list[str]] = {}
        self.forwarders: dict[int, str] = {}  # id(call) -> the function it forwards from
        self.stored: dict[str, set[str]] = {}
        for qualname, definition in index.defs.items():
            self.by_name.setdefault(definition.name, []).append(qualname)
            sig = _signature(definition)
            if sig is None:
                continue
            self.sigs[qualname] = sig
            for call in ast.walk(definition.node) if sig.kwarg else ():
                if isinstance(call, ast.Call) and any(
                        k.arg is None and _tail(k.value) == sig.kwarg for k in call.keywords):
                    self.forwarders[id(call)] = qualname
        # Attributes that hold data on a src object: calling one is opaque.
        self.data_attrs = {
            node.attr if isinstance(node, ast.Attribute) else node.target.id
            for module in index.modules.values() for node in ast.walk(module.tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            or isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)}

    def _expand(self, qualnames, seen: set[str] | None = None) -> list[str]:
        """Signature holders a call to ``qualnames`` passes to: a class
        expands to its fields and its own ``__init__``, else its bases'."""
        seen = set() if seen is None else seen
        out: list[str] = []
        for qualname in qualnames:
            definition = self.index.defs[qualname]
            if definition.kind != "class":
                out.append(qualname)
                continue
            if qualname in seen:
                continue
            seen.add(qualname)
            out += [qualname] if qualname in self.sigs else []
            if f"{qualname}.__init__" in self.index.defs:
                out.append(f"{qualname}.__init__")
                continue
            scanner = _Scanner(self.index, definition.module.bindings)
            bases = [scanner.resolve_chain(chain)[0] for chain in map(
                scanner._chain, definition.node.bases) if chain]
            out += self._expand([b for b in bases if b and self.index.defs[b].kind == "class"],
                                seen)
        return out

    def _targets(self, scanner: _Scanner, func: ast.AST) -> list[str] | None:
        """The signature holders a callee may be; None when it is opaque."""
        chain = scanner._chain(func)
        if chain is not None:
            resolved, bound = scanner.resolve_chain(chain)
            if resolved is not None:
                return self._expand([resolved])
            if bound and self.index.resolve(scanner.bindings[chain[0]]) is None:
                return []  # a call into another package
            if len(chain) == 1:
                return [] if not bound and chain[0] in _BUILTINS else None
        name = _tail(func)
        if name is None:
            return None
        if name in self.by_name:
            return self._expand(self.by_name[name])
        held = self.stored.get(name, set())
        if held and "?" not in held:  # a registry-held callable
            return self._expand(q for h in held for q in (
                [h] if h in self.index.defs else self.by_name.get(h, [])))
        return None if name in self.data_attrs else []

    def passed(self, scans: list[tuple[_Scanner, str | None]]) -> dict[str, set[str]]:
        """Parameter names passed, per signature holder (``ALL`` = any)."""
        escaped: set[str] = set()
        self.stored = {}
        for scanner, _ in scans:
            escaped |= scanner.escaped
            for attr, held in scanner.stored.items():
                self.stored.setdefault(attr, set()).update(held)
        escaped |= {q for q, d in self.index.defs.items() if any(
            _tail(x.func if isinstance(x, ast.Call) else x) not in _NOT_ESCAPING
            for x in getattr(d.node, "decorator_list", ()))}
        opaque = self._expand(q for q, d in self.index.defs.items()
                              if q in escaped or d.name in escaped)
        calls = []
        for scanner, owner in scans:
            for call in scanner.calls:
                targets = self._targets(scanner, call.func)
                if targets is None:  # ``cls(...)`` in a method may also be its own class
                    targets = opaque + (self._expand([owner]) if owner else [])
                if _tail(call.func) == "replace":  # dataclasses.replace(obj, field=...)
                    targets = [q for q in self.sigs if self.index.defs[q].kind == "class"]
                calls.append((call, targets, 0 if _tail(call.func) == "replace"
                              else len(call.args)))
        passed: dict[str, set[str]] = {}
        received: dict[str, set[str]] = {}  # keywords that reached a ``**kwargs``
        changed = True
        while changed:
            changed = False
            for call, targets, positional in calls:
                keywords = {k.arg for k in call.keywords if k.arg is not None}
                for k in call.keywords:
                    if k.arg is not None:
                        continue
                    if isinstance(k.value, ast.Dict) and all(
                            isinstance(key, ast.Constant) for key in k.value.keys):
                        keywords |= {key.value for key in k.value.keys}
                    elif id(call) in self.forwarders:
                        keywords |= received.get(self.forwarders[id(call)], set())
                    else:
                        keywords.add(ALL)
                if any(isinstance(a, ast.Starred) for a in call.args):
                    positional = 10**6
                for target in targets:
                    sig = self.sigs[target]
                    passed.setdefault(target, set()).update(
                        keywords & (sig.names | {ALL}), sig.positional[:positional])
                    extra = keywords - sig.names
                    if sig.kwarg is not None and not extra <= received.setdefault(target, set()):
                        received[target] |= extra
                        changed = True
        return passed

    def unpassed(self, reached: set[str], passed: dict[str, set[str]]) -> dict[str, tuple[str, int]]:
        """``func(param)`` -> (qualname, line) for each defaulted parameter
        of a reached public function, method or frozen dataclass that no
        call passes.  ``Class(param)`` names an ``__init__`` parameter."""
        found: dict[str, tuple[str, int]] = {}
        for qualname in sorted(reached & self.sigs.keys()):
            definition = self.index.defs[qualname]
            owner = self.index.defs[definition.owner] if definition.owner else None
            if definition.name.startswith("_") and definition.name != "__init__" or (
                    owner is not None and owner.private) or ALL in passed.get(qualname, ()):
                continue
            label = definition.owner if definition.name == "__init__" else qualname
            for param, line in self.sigs[qualname].defaulted.items():
                if param not in passed.get(qualname, ()):
                    found[f"{label}({param})"] = (qualname, line)
        return found


def read_waivers(path: Path) -> tuple[dict[str, str], list[str]]:
    """``name: reason`` lines; returns (waivers, malformed-line reports)."""
    waivers: dict[str, str] = {}
    errors: list[str] = []
    if not path.is_file():
        return waivers, errors
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(":")
        if not reason.strip():
            errors.append(f"{path}:{line_no}: waiver {name.strip()!r} needs a reason")
        waivers[name.strip()] = reason.strip()
    return waivers, errors


def _covers(waiver: str, name: str) -> bool:
    return name == waiver or name.startswith((waiver + ".", waiver + "("))


def lint_repo(repo: Path, src: Path | None = None) -> list[str]:
    """Run the gate over ``repo``; returns report lines (empty when clean)."""
    src = src if src is not None else repo / "src"
    index = Index(src)
    root_scans = [scan(index, _module_level(m), m.bindings, m.package)
                  for m in index.modules.values()]
    for path in _python_files(repo, ROOT_DIRS):
        root_scans.append(_file_scan(index, path.read_text(encoding="utf-8"), str(path)))
    workflow = repo / CI_WORKFLOW
    if workflow.is_file():
        root_scans += [_file_scan(index, s, str(workflow)) for s in _ci_snippets(workflow)]
    entry_points = [e for e in ENTRY_POINTS if e in index.defs]

    def walk(extra: list[str]) -> Reach:
        reach = Reach(index)
        for scanner in root_scans:
            reach.add_scan(scanner)
        for qualname in entry_points + extra:
            reach.mark(qualname)
        reach.run()
        return reach

    # Who references each definition at all: tests, roots and every body
    # in src/ other than the definition's own.
    test_scans = [_file_scan(index, p.read_text(encoding="utf-8"), str(p))
                  for p in _python_files(repo, ("tests",))]
    test_refs = set().union(*(s.refs for s in test_scans))
    test_attrs = set().union(*(s.attrs for s in test_scans))
    referenced = set(test_refs) | set().union(*(s.refs for s in root_scans))
    attr_users: dict[str, set[str]] = {}
    for definition in index.defs.values():
        module = definition.module
        body = scan(index, _own_nodes(definition), module.bindings, module.package)
        referenced |= body.refs - {definition.qualname}
        for attr in body.attrs:
            attr_users.setdefault(attr, set()).add(definition.qualname)
    for scanner in [*root_scans, *test_scans]:
        for attr in scanner.attrs:
            attr_users.setdefault(attr, set()).add("")

    def findings(reached: set[str]) -> dict[str, str]:
        found: dict[str, str] = {}
        for qualname, definition in index.defs.items():
            # An unreached class is reported once, not once per method.
            if qualname in reached or (definition.owner is not None
                                       and definition.owner not in reached):
                continue
            if definition.private:
                if definition.owner is None:
                    used = qualname in referenced
                else:
                    used = bool(attr_users.get(definition.name, set()) - {qualname})
                if not used:
                    found[qualname] = "is referenced by nothing"
                continue
            in_tests = (qualname in test_refs
                        or (definition.owner is not None and definition.name in test_attrs))
            found[qualname] = ("is reached only from tests/" if in_tests
                               else "is reached from no root")
        return found

    report: list[str] = []
    waivers, errors = read_waivers(repo / WAIVER_FILE)
    report += errors
    unwaived = findings(walk([]).reached)
    kept = [q for q in index.defs if any(_covers(w, q) for w in waivers)]
    reach = walk(kept)
    params = Params(index)
    unpassed = params.unpassed(reach.reached,
                               params.passed([(s, None) for s in root_scans] + reach.scans))
    for waiver in waivers:
        if not any(_covers(waiver, name) for name in [*unwaived, *unpassed]):
            report.append(f"{repo / WAIVER_FILE}: stale waiver {waiver!r} — "
                          "it matches no finding; delete it")
    for qualname, why in findings(reach.reached).items():
        if any(_covers(w, qualname) for w in waivers):
            continue
        definition = index.defs[qualname]
        report.append(f"{definition.path}:{definition.node.lineno}: "
                      f"{definition.kind} {qualname} {why}")
    test_passed = params.passed([(s, None) for s in test_scans])
    for label, (qualname, line) in unpassed.items():
        if any(_covers(w, label) for w in waivers):
            continue
        param = label.rpartition("(")[2][:-1]
        why = ("is passed only from tests/" if param in test_passed.get(qualname, ())
               else "is passed by no root")
        report.append(f"{index.defs[qualname].path}:{line}: parameter {label} {why}")
    return report


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path("src")
    report = lint_repo(src.resolve().parent, src)
    for line in report:
        print(line)
    if report:
        print(f"{len(report)} consumer-gate finding(s): delete the name, give it "
              f"a consumer, or waive it in {WAIVER_FILE} with a reason",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
