"""D-rules: determinism.

The whole distributed layer (backends, shards, the directory queue)
is correct only because a simulation is a *deterministic function* of
(config, trace): re-running a reclaimed unit must produce byte-
identical results, and two hosts hashing the same spec must agree on
the hash.  These rules catch the classic ways Python code silently
breaks that:

* ``D101`` — stdlib ``random`` (unseeded, or module-level state
  shared across call sites) instead of the repo's explicitly seeded
  :class:`repro.utils.rng.XorShiftRNG`;
* ``D102`` — wall-clock time flowing into statistics, result
  documents, or serialized payloads (timeouts and lease aging are
  fine: the clock may *drive* scheduling, never *land in* results);
* ``D103`` — iterating a bare ``set`` into anything order-sensitive
  (set iteration order varies with hash randomization across runs);
* ``D104`` — scheduling or serializing directly off ``os.listdir`` /
  ``glob`` / ``iterdir`` results without ``sorted()``, also through a
  helper in the same module that the listing is passed to (readdir
  order is filesystem-dependent; two hosts draining one queue must
  scan it identically);
* ``D105`` — ``json.dumps`` without ``sort_keys=True`` (every JSON
  document in this repo may end up hashed, diffed, or compared
  byte-for-byte across backends; key order must be canonical).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from tools.lint.framework import (
    FileContext,
    Finding,
    Rule,
    call_name,
    import_aliases,
    names_imported_from,
    register,
)

#: Consumers for which element order cannot matter; feeding them an
#: unordered iterable is fine.
ORDER_FREE_CONSUMERS = frozenset(
    ("sorted", "set", "frozenset", "len", "any", "all", "sum",
     "min", "max", "Counter"))

#: Consumers that materialize or expose iteration order.
ORDER_SENSITIVE_CONSUMERS = frozenset(
    ("list", "tuple", "enumerate", "iter", "next", "reversed",
     "join", "extend"))


def _iteration_context(ctx: FileContext, node: ast.AST) -> str | None:
    """How ``node`` (an unordered/unsorted iterable expression) is
    consumed, if the consumption is order-sensitive.

    Returns a short description for findings, or None when the
    consumer provably doesn't care about order (``any``/``set``/
    ``sorted``/membership tests/...).  Unknown consumers return None
    too: these heuristics prefer silence over false positives.
    """
    parent = ctx.parent(node)
    if isinstance(parent, ast.For) and parent.iter is node:
        return "a for loop"
    if isinstance(parent, ast.comprehension) and parent.iter is node:
        comp = ctx.parent(parent)
        if isinstance(comp, ast.SetComp):
            return None  # set in, set out: order never escapes
        if isinstance(comp, ast.GeneratorExp):
            # A genexp is as order-sensitive as whatever consumes it:
            # any(x for x in s) is fine, list(x for x in s) is not.
            return _iteration_context(ctx, comp)
        kind = {ast.ListComp: "a list comprehension",
                ast.DictComp: "a dict comprehension"}
        return kind.get(type(comp), "a comprehension")
    if isinstance(parent, ast.Call) and node in parent.args:
        name = call_name(parent)
        last = name.rsplit(".", 1)[-1] if name else None
        if last is None and isinstance(parent.func, ast.Attribute):
            last = parent.func.attr
        if last in ORDER_SENSITIVE_CONSUMERS:
            return f"{last}()"
        return None
    if isinstance(parent, ast.Starred):
        return "argument unpacking"
    return None


@register
class UnseededRandomRule(Rule):
    """D101: stdlib ``random`` in simulation code."""

    id = "D101"
    title = "stdlib random instead of explicitly seeded XorShiftRNG"
    rationale = (
        "Module-level random.* shares hidden global state between "
        "call sites and CPython releases have changed convenience-"
        "method call sequences; an unseeded random.Random() differs "
        "on every run.  Simulation paths must draw from "
        "repro.utils.rng.XorShiftRNG with an explicit seed so every "
        "backend and every retry reproduces the same bits."
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.walk(ast.ImportFrom):
            if node.module == "random":
                yield self.finding(
                    ctx, node,
                    "importing names from 'random' hides the shared "
                    "global RNG state; use repro.utils.rng."
                    "XorShiftRNG(seed) instead")
        aliases = import_aliases(ctx, "random")
        if not aliases:
            return
        for node in ctx.walk(ast.Call):
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in aliases):
                continue
            if func.attr == "Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node,
                        "random.Random() without a seed is "
                        "nondeterministic; pass an explicit seed or "
                        "use repro.utils.rng.XorShiftRNG(seed)")
            elif func.attr == "SystemRandom":
                yield self.finding(
                    ctx, node,
                    "random.SystemRandom is nondeterministic by "
                    "design and can never reproduce a run")
            else:
                yield self.finding(
                    ctx, node,
                    f"module-level random.{func.attr}() draws from "
                    f"hidden shared state; use an explicitly seeded "
                    f"generator (repro.utils.rng.XorShiftRNG)")


#: Identifier substrings that mark a value as part of a result/
#: statistics document.  Deliberately broad: a wall-clock read next
#: to one of these names is almost always a reproducibility bug.
_RESULT_WORDS = ("result", "payload", "document", "stats", "stat",
                 "checkpoint", "manifest", "metadata", "record")

#: Callees that persist or canonicalize documents; a wall-clock value
#: passed into them lands in an artifact.
_SINK_CALLEES = frozenset(
    ("dumps", "dump", "atomic_write_json", "stats_to_dict",
     "write_text", "canonical_digest"))


def _mentions_result_word(text: str) -> bool:
    lowered = text.lower()
    return any(word in lowered for word in _RESULT_WORDS)


@register
class WallClockInResultsRule(Rule):
    """D102: wall-clock readings flowing into result documents."""

    id = "D102"
    title = "wall-clock time feeding statistics or result documents"
    rationale = (
        "Result documents must be a pure function of (config, trace) "
        "or retried/resharded runs stop being byte-identical and "
        "content-addressed caching breaks.  The clock may drive "
        "timeouts and lease aging, but its value must never be "
        "stored in a document, statistic, or serialized payload."
    )

    _CLOCK_ATTRS = {
        "time": frozenset(("time", "time_ns")),
        "datetime": frozenset(("now", "utcnow", "today")),
    }

    def _clock_calls(self, ctx: FileContext) -> Iterable[ast.Call]:
        time_aliases = import_aliases(ctx, "time")
        time_names = {
            name for name in names_imported_from(ctx, "time")
            if name in self._CLOCK_ATTRS["time"]}
        datetime_like = import_aliases(ctx, "datetime") | \
            names_imported_from(ctx, "datetime")
        for node in ctx.walk(ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in time_names:
                yield node
            elif isinstance(func, ast.Attribute):
                base = func.value
                if isinstance(base, ast.Name) \
                        and base.id in time_aliases \
                        and func.attr in self._CLOCK_ATTRS["time"]:
                    yield node
                elif func.attr in self._CLOCK_ATTRS["datetime"]:
                    root = base
                    while isinstance(root, ast.Attribute):
                        root = root.value
                    if isinstance(root, ast.Name) \
                            and root.id in datetime_like:
                        yield node

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for call in self._clock_calls(ctx):
            sink = self._document_sink(ctx, call)
            if sink is not None:
                yield self.finding(
                    ctx, call,
                    f"wall-clock reading flows into {sink}; result "
                    f"documents must be pure functions of "
                    f"(config, trace)")

    def _document_sink(self, ctx: FileContext,
                       call: ast.Call) -> str | None:
        previous: ast.AST = call
        for ancestor in ctx.ancestors(call):
            if isinstance(ancestor, ast.Dict):
                return "a dict literal (a document under construction)"
            if isinstance(ancestor, ast.Call) and previous is not \
                    ancestor.func:
                name = call_name(ancestor)
                last = name.rsplit(".", 1)[-1] if name else (
                    ancestor.func.attr
                    if isinstance(ancestor.func, ast.Attribute)
                    else None)
                if last in _SINK_CALLEES:
                    return f"{last}()"
            if isinstance(ancestor, (ast.Assign, ast.AnnAssign,
                                     ast.AugAssign)):
                targets = (ancestor.targets
                           if isinstance(ancestor, ast.Assign)
                           else [ancestor.target])
                for target in targets:
                    if _mentions_result_word(ast.unparse(target)):
                        return f"'{ast.unparse(target)}'"
            if isinstance(ancestor, ast.stmt):
                return None  # statement boundary: a scheduling use
            previous = ancestor
        return None


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        return name in ("set", "frozenset")
    return False


@register
class BareSetIterationRule(Rule):
    """D103: iteration order of a set escaping into ordered output."""

    id = "D103"
    title = "iterating a bare set into order-sensitive output"
    rationale = (
        "Set iteration order depends on hash values (and, for str "
        "keys, on per-process hash randomization): a list, loop body "
        "with side effects, or joined string built from a bare set "
        "differs between runs.  Wrap the set in sorted() before "
        "iterating, or keep the consumer order-free (any/all/len/"
        "set)."
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.walk():
            if not _is_set_expr(node):
                continue
            consumer = _iteration_context(ctx, node)
            if consumer is not None:
                yield self.finding(
                    ctx, node,
                    f"set iteration order reaches {consumer}; wrap "
                    f"in sorted(...) or use an order-free consumer")


@register
class UnsortedListingRule(Rule):
    """D104: directory listings consumed in readdir order."""

    id = "D104"
    title = "unsorted os.listdir/glob/iterdir feeding ordered work"
    rationale = (
        "readdir order is filesystem- and history-dependent.  Queue "
        "scheduling, checkpoint scans, and anything serialized from "
        "a directory listing must iterate sorted(...) so every host "
        "(and every rerun) scans identically; order-free consumers "
        "(any/all/set/len) are exempt."
    )

    _LISTING_ATTRS = frozenset(
        ("glob", "rglob", "iglob", "iterdir", "listdir", "scandir"))

    def _is_listing_call(self, ctx: FileContext,
                         node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Attribute) \
                and func.attr in self._LISTING_ATTRS:
            return True
        if isinstance(func, ast.Name):
            imported = (names_imported_from(ctx, "os")
                        | names_imported_from(ctx, "glob")
                        | names_imported_from(ctx, "pathlib"))
            return func.id in self._LISTING_ATTRS \
                and func.id in imported
        return False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.walk(ast.Call):
            if not self._is_listing_call(ctx, node):
                continue
            consumer = (_iteration_context(ctx, node)
                        or _helper_context(ctx, node))
            if consumer is not None:
                yield self.finding(
                    ctx, node,
                    f"directory listing consumed by {consumer} in "
                    f"readdir order; wrap in sorted(...) so every "
                    f"host scans identically")


def _helper_context(ctx: FileContext, node: ast.AST) -> str | None:
    """How a function of this module consumes ``node`` when ``node`` is
    passed to it as an argument: the first order-sensitive use of the
    parameter it binds (see :func:`_iteration_context`), if any."""
    call = ctx.parent(node)
    keyword = None
    if isinstance(call, ast.keyword):
        keyword, call = call.arg, ctx.parent(call)
    if not isinstance(call, ast.Call) or node is call.func:
        return None
    callee = call.func
    name = (callee.attr if isinstance(callee, ast.Attribute)
            else getattr(callee, "id", None))
    for func in ctx.walk(ast.FunctionDef, ast.AsyncFunctionDef):
        if func.name != name:
            continue
        positional = [arg.arg for arg in func.args.posonlyargs
                      + func.args.args]
        if isinstance(callee, ast.Attribute) \
                and isinstance(ctx.parent(func), ast.ClassDef):
            positional = positional[1:]  # bound self/cls
        if keyword is not None:
            param = keyword
        elif node in call.args[:len(positional)]:
            param = positional[call.args.index(node)]
        else:
            continue
        if _rebinds(func, param):
            continue  # a use may see another value (sorted, shadowed)
        for use in ast.walk(func):
            if isinstance(use, ast.Name) and use.id == param \
                    and isinstance(use.ctx, ast.Load):
                consumer = _iteration_context(ctx, use)
                if consumer is not None:
                    return f"{consumer} in {func.name}()"
    return None


def _rebinds(func: ast.AST, name: str) -> bool:
    """Does the body of ``func`` bind ``name`` (an assignment, a loop
    or comprehension target, a nested function's or lambda's
    parameter, an ``except ... as`` or an import)?"""
    for stmt in func.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id == name \
                    and not isinstance(node.ctx, ast.Load):
                return True
            if isinstance(node, ast.arg) and node.arg == name:
                return True
            if isinstance(node, ast.ExceptHandler) and node.name == name:
                return True
            if isinstance(node, ast.alias) \
                    and (node.asname or node.name) == name:
                return True
    return False


@register
class UnsortedJsonRule(Rule):
    """D105: json.dumps without canonical key order."""

    id = "D105"
    title = "json.dumps without sort_keys=True"
    rationale = (
        "Specs, checkpoints, and result documents are hashed "
        "(canonical_digest), diffed, and byte-compared across "
        "backends; dict insertion order is an implementation detail "
        "of the writer, so every json.dumps in this codebase "
        "canonicalizes with sort_keys=True."
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        dumps_names = {
            name for name in names_imported_from(ctx, "json")
            if name in ("dumps", "dump")}
        json_aliases = import_aliases(ctx, "json")
        for node in ctx.walk(ast.Call):
            func = node.func
            is_dumps = (
                (isinstance(func, ast.Name) and func.id in dumps_names)
                or (isinstance(func, ast.Attribute)
                    and func.attr in ("dumps", "dump")
                    and isinstance(func.value, ast.Name)
                    and func.value.id in json_aliases))
            if not is_dumps:
                continue
            sorted_keys = any(
                keyword.arg == "sort_keys"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in node.keywords)
            if not sorted_keys:
                yield self.finding(
                    ctx, node,
                    "json.dumps without sort_keys=True produces "
                    "non-canonical documents; every serialized dict "
                    "here may be hashed or byte-compared")
