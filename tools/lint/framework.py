"""resim-lint core: findings, rules, suppressions, and the runner.

The simulator's distributed story rests on invariants that are
*contracts*, not conventions — bit-identical execution across
backends, exact-sum counter merges, canonical serializable specs,
atomic write-then-rename queue artifacts.  The test suite checks them
differentially and after the fact; this framework checks them at
review time, by walking the AST of every file under ``src/`` with a
registry of project-specific rules (:mod:`tools.lint.determinism`,
:mod:`tools.lint.serialization`, :mod:`tools.lint.exactsum`).

Suppressions
------------

A finding is silenced per line with::

    risky_call()  # resim-lint: disable=D104 -- first-match scan, order irrelevant

or, for statements that don't fit a trailing comment, on the line
immediately above (a comment with nothing but whitespace before the
``#``)::

    # resim-lint: disable=S202 -- result export only; never re-read
    class SessionResult:

The justification after the rule list is **mandatory**: a disable
comment without one is itself a finding (:data:`RULE_UNJUSTIFIED`),
and a disable that silences nothing is flagged too
(:data:`RULE_UNUSED`) so stale suppressions cannot accumulate.

Everything here is standard library only — the linter must run in a
bare checkout (``python -m tools.lint``) with no install step.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from collections.abc import Callable, Iterable, Iterator

#: Runner-implemented meta rules (reported like any other finding but
#: not registered: they cannot be disabled or selected away).
RULE_UNJUSTIFIED = "L001"
RULE_UNUSED = "L002"
#: A file that does not parse cannot be checked at all.
RULE_SYNTAX = "E999"

_SUPPRESS_RE = re.compile(
    r"#\s*resim-lint:\s*disable=([A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)"
    r"(.*)$"
)
#: A justification must contain at least one real word — punctuation
#: such as ``--`` alone does not explain anything.
_JUSTIFIED_RE = re.compile(r"[A-Za-z]{3}")


@dataclass(frozen=True, order=True)
# resim-lint: disable=S202 -- one-way export by design: findings are
# emitted into --format json output and never read back.
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: " \
               f"{self.rule} {self.message}"

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "message": self.message}


@dataclass
class Suppression:
    """One parsed ``# resim-lint: disable=...`` comment."""

    line: int           # line the suppression covers
    comment_line: int   # line the comment itself is on
    rules: frozenset[str]
    justified: bool
    used: bool = False


class FileContext:
    """One parsed source file plus everything rules need to know.

    ``module`` is the dotted module name the file would import as
    (``repro.exec.queue`` for ``src/repro/exec/queue.py``); scope-
    limited rules (e.g. the atomic-write rule, which only polices the
    queue/checkpoint protocol layer) match on it.  Parent links are
    attached to every AST node so rules can ask "what syntactic
    context does this expression sit in?" without carrying visitor
    state.
    """

    def __init__(self, path: str, module: str, source: str) -> None:
        self.path = path
        self.module = module
        self.source = source
        self.tree = ast.parse(source)  # SyntaxError handled by runner
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                child._resim_parent = node  # type: ignore[attr-defined]
        self.suppressions = _parse_suppressions(source)

    # -- tree navigation ----------------------------------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        return getattr(node, "_resim_parent", None)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The node's parents, innermost first, up to the module."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def walk(self, *types: type) -> Iterator[ast.AST]:
        """Every node in the file, optionally filtered by type."""
        for node in ast.walk(self.tree):
            if not types or isinstance(node, types):
                yield node

    # -- import tables (built once per file; rules query them per
    # call node, so rescanning the tree each time is quadratic) --------

    @cached_property
    def module_aliases(self) -> dict[str, frozenset[str]]:
        """``import m [as a]`` bindings: module -> local names."""
        table: dict[str, set[str]] = {}
        for node in self.walk(ast.Import):
            for alias in node.names:
                table.setdefault(alias.name, set()).add(
                    alias.asname or alias.name)
        return {module: frozenset(names)
                for module, names in table.items()}

    @cached_property
    def from_imports(self) -> dict[str, frozenset[str]]:
        """``from m import n [as a]`` bindings: module -> local
        names."""
        table: dict[str, set[str]] = {}
        for node in self.walk(ast.ImportFrom):
            if node.module is None:
                continue
            for alias in node.names:
                table.setdefault(node.module, set()).add(
                    alias.asname or alias.name)
        return {module: frozenset(names)
                for module, names in table.items()}


def _parse_suppressions(source: str) -> list[Suppression]:
    """Extract disable comments via tokenize (immune to ``#`` inside
    string literals, which a regex over raw lines is not)."""
    suppressions: list[Suppression] = []
    lines = source.splitlines()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [token for token in tokens
                    if token.type == tokenize.COMMENT]
    except tokenize.TokenError:  # runner reports the SyntaxError
        return []
    for token in comments:
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        rules = frozenset(
            rule.strip() for rule in match.group(1).split(","))
        row, col = token.start
        own_line = not lines[row - 1][:col].strip()
        # A trailing comment covers its own line; a comment alone on
        # a line covers the next *code* line (the statement it
        # precedes), skipping the rest of its own comment block and
        # blank lines so justifications may wrap.
        covered = row
        if own_line:
            covered = row + 1
            while covered <= len(lines) and (
                    not lines[covered - 1].strip()
                    or lines[covered - 1].lstrip().startswith("#")):
                covered += 1
        suppressions.append(Suppression(
            line=covered,
            comment_line=row,
            rules=rules,
            justified=bool(_JUSTIFIED_RE.search(match.group(2))),
        ))
    return suppressions


class Rule:
    """One invariant check over a single parsed file.

    Subclasses set ``id`` / ``title`` / ``rationale`` and implement
    :meth:`check`, yielding findings via :meth:`finding`.
    """

    id = "X000"
    title = "untitled rule"
    rationale = ""

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST,
                message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
        )


class ProjectRule(Rule):
    """A cross-file invariant checked once over the whole file set.

    Used where the contract spans modules — e.g. every counter field
    of ``SimulationStatistics`` must be covered by ``merge()`` and by
    the exact-sum set the conformance suite asserts over.
    """

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def check_project(self,
                      contexts: list[FileContext]) -> Iterable[Finding]:
        raise NotImplementedError


#: The rule registry.  Modules register at import time via
#: :func:`register`; :func:`all_rules` is the stable, id-sorted view.
_RULES: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and register one rule."""
    rule = rule_cls()
    if rule.id in _RULES:
        raise ValueError(f"duplicate rule id {rule.id}")
    _RULES[rule.id] = rule
    return rule_cls


def all_rules() -> tuple[Rule, ...]:
    return tuple(rule for _, rule in sorted(_RULES.items()))


# -- shared AST helpers ----------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """Dotted name of a call's callee, else None."""
    return dotted_name(node.func)


def import_aliases(ctx: FileContext, module: str) -> frozenset[str]:
    """Names under which ``module`` is imported in this file
    (``import random`` -> {"random"}; ``import random as rnd`` ->
    {"rnd"})."""
    return ctx.module_aliases.get(module, frozenset())


def names_imported_from(ctx: FileContext, module: str) -> frozenset[str]:
    """Local names bound by ``from <module> import ...``."""
    return ctx.from_imports.get(module, frozenset())


# -- runner -----------------------------------------------------------


def module_name_for(path: Path) -> str:
    """Dotted module name a source path imports as.

    Resolution: the path component after a ``src`` directory if one
    is present (the repo layout), else from the last ``repro``
    component, else the bare stem.
    """
    parts = list(path.parts)
    start = None
    if "src" in parts:
        start = parts.index("src") + 1
    elif "repro" in parts:
        start = len(parts) - 1 - parts[::-1].index("repro")
    if start is None or start >= len(parts):
        dotted = [path.stem]
    else:
        dotted = list(parts[start:-1]) + [path.stem]
    if dotted and dotted[-1] == "__init__":
        dotted = dotted[:-1] or [path.stem]
    return ".".join(dotted)


@dataclass
# resim-lint: disable=S202 -- one-way export by design: the report is
# emitted into --format json output and never read back.
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding]
    files_checked: int
    suppressions_honored: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return {
            "version": 1,
            "files_checked": self.files_checked,
            "suppressions_honored": self.suppressions_honored,
            "findings": [f.to_dict() for f in self.findings],
            "counts": counts,
        }


def collect_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Sorted so that output order (and therefore CI diffs) is a pure
    function of the tree, never of readdir order — the linter holds
    itself to its own D104.
    """
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    unique: dict[Path, None] = {}
    for path in files:
        unique.setdefault(path, None)
    return list(unique)


def lint_contexts(contexts: list[FileContext], *,
                  select: set[str] | None = None,
                  extra_findings: Iterable[Finding] = (),
                  ) -> LintReport:
    """Run the registry over already-parsed contexts.

    ``select`` limits checking to the given rule ids; when it is
    active, unused-suppression reporting is disabled (a suppression
    for an unselected rule is not "unused").
    """
    rules = [rule for rule in all_rules()
             if select is None or rule.id in select]
    raw: list[Finding] = list(extra_findings)
    for ctx in contexts:
        for rule in rules:
            raw.extend(rule.check(ctx))
    for rule in rules:
        if isinstance(rule, ProjectRule):
            raw.extend(rule.check_project(contexts))

    by_path = {ctx.path: ctx for ctx in contexts}
    kept: list[Finding] = []
    honored = 0
    for finding in raw:
        ctx = by_path.get(finding.path)
        suppression = None
        if ctx is not None:
            for candidate in ctx.suppressions:
                if finding.line == candidate.line and \
                        finding.rule in candidate.rules:
                    suppression = candidate
                    break
        if suppression is None:
            kept.append(finding)
            continue
        suppression.used = True
        if suppression.justified:
            honored += 1
        else:
            # An unjustified suppression does not silence: the
            # original finding stays AND the comment is flagged.
            kept.append(finding)

    for ctx in contexts:
        for suppression in ctx.suppressions:
            if not suppression.justified:
                kept.append(Finding(
                    path=ctx.path, line=suppression.comment_line,
                    col=1, rule=RULE_UNJUSTIFIED,
                    message="suppression without a justification: "
                            "write '# resim-lint: disable=RULE -- "
                            "why this is safe'"))
            elif not suppression.used and select is None:
                kept.append(Finding(
                    path=ctx.path, line=suppression.comment_line,
                    col=1, rule=RULE_UNUSED,
                    message="unused suppression (silences nothing); "
                            "remove it"))
    kept.sort()
    return LintReport(findings=kept, files_checked=len(contexts),
                      suppressions_honored=honored)


def lint_paths(paths: Iterable[str | Path], *,
               select: set[str] | None = None) -> LintReport:
    """Lint files/directories; the main entry point."""
    contexts: list[FileContext] = []
    parse_failures: list[Finding] = []
    files = collect_files(paths)
    for path in files:
        source = path.read_text()
        try:
            contexts.append(FileContext(
                str(path), module_name_for(path), source))
        except SyntaxError as error:
            parse_failures.append(Finding(
                path=str(path), line=error.lineno or 1,
                col=(error.offset or 0) + 1, rule=RULE_SYNTAX,
                message=f"file does not parse: {error.msg}"))
    report = lint_contexts(contexts, select=select,
                           extra_findings=parse_failures)
    report.files_checked = len(files)
    return report


def lint_source(source: str, *, module: str = "repro.fixture",
                path: str = "<fixture>",
                select: set[str] | None = None) -> list[Finding]:
    """Lint one in-memory snippet (the unit-test entry point)."""
    ctx = FileContext(path, module, source)
    return lint_contexts([ctx], select=select).findings


RuleCheck = Callable[[FileContext], Iterable[Finding]]
