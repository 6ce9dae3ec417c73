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
private one that nothing references at all (not even a test).  Names kept
on purpose go in ``tools/consumer_waivers.txt`` as ``name: reason`` (a
module or class name waives everything under it).  A waived name is a
root itself; a waiver that no longer matches a finding is stale and fails
the gate.

Run as ``python tools/lint_consumers.py [src]``; exits non-zero and prints
``path:line: finding`` for each violation.  The test suite runs it over
``src/`` so CI enforces it.
"""

from __future__ import annotations

import ast
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
    """Collects the definitions one body references and the attribute
    names (and identifier-shaped strings) it uses."""

    def __init__(self, index: Index, bindings: dict[str, str]) -> None:
        self.index = index
        self.bindings = bindings
        self.refs: set[str] = set()
        self.attrs: set[str] = set()

    def _chain(self, node: ast.AST) -> list[str] | None:
        if isinstance(node, ast.Name):
            return [node.id]
        if isinstance(node, ast.Attribute):
            base = self._chain(node.value)
            return None if base is None else base + [node.attr]
        return None

    def _reference(self, chain: list[str]) -> None:
        target = self.bindings.get(chain[0])
        if target is None:
            return
        for attr in [None, *chain[1:]]:
            if attr is not None:
                target = f"{target}.{attr}"
            resolved = self.index.resolve(target)
            if resolved is None:
                return
            if resolved in self.index.defs:
                self.refs.add(resolved)
            target = resolved

    def visit_Name(self, node: ast.Name) -> None:
        self._reference([node.id])

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.attrs.add(node.attr)
        chain = self._chain(node)
        if chain is not None:
            self._reference(chain)
        else:
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
            self.add_scan(scan(self.index, _own_nodes(definition), module.bindings,
                               module.package))
        return self.reached


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


def _covers(waiver: str, qualname: str) -> bool:
    return qualname == waiver or qualname.startswith(waiver + ".")


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

    def walk(extra: list[str]) -> set[str]:
        reach = Reach(index)
        for scanner in root_scans:
            reach.add_scan(scanner)
        for qualname in entry_points + extra:
            reach.mark(qualname)
        return reach.run()

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
    unwaived = findings(walk([]))
    for waiver in waivers:
        if not any(_covers(waiver, qualname) for qualname in unwaived):
            report.append(f"{repo / WAIVER_FILE}: stale waiver {waiver!r} — "
                          "it matches no finding; delete it")
    kept = [q for q in index.defs if any(_covers(w, q) for w in waivers)]
    for qualname, why in findings(walk(kept)).items():
        if any(_covers(w, qualname) for w in waivers):
            continue
        definition = index.defs[qualname]
        report.append(f"{definition.path}:{definition.node.lineno}: "
                      f"{definition.kind} {qualname} {why}")
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
