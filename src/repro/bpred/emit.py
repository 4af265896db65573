"""Branch-predictor emitters: the composite predictor as generated code.

:class:`~repro.bpred.unit.BranchPredictorUnit` is the object model of
direction predictor, BTB and RAS.  Generated simulators (Reshadi &
Dutt's move, see :mod:`repro.core.specialize`) instead keep the
``perfect``, ``twolevel`` and ``gshare`` forms as plain locals: the PHT
and history registers, a BTB of per-set dicts and a RAS ring.  This
module holds the one set of emitters for that code, so the two
generated consumers share it:

* the specialized engine (:mod:`repro.core.specialize`) splices
  :func:`predictor_state`, :func:`resolve_chunk` and
  :func:`update_chunk` into its ``run_trace``, reading the branch's
  fields from its in-flight op (``op.bk``, ``op.taken``, ``op.target``);
* the synthetic trace generator (:mod:`repro.workloads.synthetic`)
  calls :func:`compile_predictor`, a factory of fetch-time-trained
  ``predict(pc, bk, taken, target)`` functions that reads the same
  fields from its arguments.

A scheme without an inline form, and a subclassed
:class:`~repro.bpred.unit.PredictorConfig` (whose overridden behaviour
the emitters cannot see), keep the object model.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.bpred.unit import (
    PREDICTORS,
    PredictorConfig,
    _build_gshare,
    _build_perfect,
    _build_twolevel,
)
from repro.isa.instruction import INSTRUCTION_BYTES
from repro.isa.opcodes import BranchKind
from repro.utils.memo import BoundedMemo

#: Registered predictor builders whose tables are generated as locals,
#: and the form each is generated in.  Inlining is keyed on the builder
#: a scheme name resolves to, not on the name, so a scheme registered
#: over one of these keeps calling the object model.
_INLINE_BUILDERS = {
    _build_perfect: "perfect",
    _build_twolevel: "twolevel",
    _build_gshare: "gshare",
}

#: ``pc >> _WORD_SHIFT`` is ``pc // INSTRUCTION_BYTES``, the word
#: address every predictor table is indexed by.
_WORD_SHIFT = INSTRUCTION_BYTES.bit_length() - 1


def reindent(text: str, indent: int) -> list[str]:
    """Re-indent a template chunk by ``indent`` spaces."""
    pad = " " * indent
    lines = []
    for line in text.strip("\n").splitlines():
        lines.append(pad + line if line.strip() else "")
    return lines


def _nested(text: str, indent: int) -> str:
    return "\n".join(reindent(text, indent))


def inline_scheme(predictor: PredictorConfig) -> str | None:
    """The form ``predictor`` is generated inline in, or None when it
    calls the object model."""
    return _INLINE_BUILDERS.get(PREDICTORS.get(predictor.scheme, None))


def direction(predictor: PredictorConfig) -> tuple[str, str, str, str]:
    """The two-level direction tables for the word address ``bw``:
    their power-on state, the line that picks the history register
    (empty for a single global one), the register, and the PHT
    index."""
    gshare = inline_scheme(predictor) == "gshare"
    l1_size = 1 if gshare else predictor.l1_size
    state = f"pht = [2] * {predictor.l2_size}\n"
    if l1_size == 1:
        state += "ghist = 0\n"
        slot, history = "", "ghist"
    else:
        state += f"bht = [0] * {l1_size}\n"
        slot, history = f"bh = bw & {l1_size - 1}\n", "bht[bh]"
    if gshare:
        index = f"({history} ^ bw)"
    else:
        index = f"({history} | (bw << {predictor.history_length}))"
    return state, slot, history, f"{index} & {predictor.l2_size - 1}"


def btb(predictor: PredictorConfig, op: str = "op.") -> tuple[str, str, str]:
    """The BTB for the word address ``bw``: its empty state, the
    lookup into ``pt`` (None on a miss; a hit becomes the set's most
    recently used entry) and the fill of the branch's target
    (``{op}target``).  Entries are keyed by ``bw``, which stands for
    the (set, tag) pair."""
    sets = predictor.btb_entries // predictor.btb_assoc
    # A dict per set, in LRU order: least recently used first.
    return f"btb = [{{}} for _ in range({sets})]\n", f"""
bs = btb[bw & {sets - 1}]
pt = bs.pop(bw, None)
if pt is not None:
    bs[bw] = pt
""", f"""
bs = btb[bw & {sets - 1}]
if bw in bs:
    del bs[bw]
elif len(bs) == {predictor.btb_assoc}:
    del bs[next(iter(bs))]
bs[bw] = {op}target
"""


def predictor_state(predictor: PredictorConfig) -> str:
    """The predictor's power-on state as locals (or the bound object
    calls of a scheme without an inline form)."""
    scheme = inline_scheme(predictor)
    if scheme == "perfect":
        return ""
    if scheme is None:
        return "bp_resolve = bpred.resolve\nbp_update = bpred.update\n"
    return (direction(predictor)[0] + btb(predictor)[0]
            + f"ras = [0] * {predictor.ras_depth}\nras_top = 0\nras_n = 0\n")


def resolve_chunk(predictor: PredictorConfig, *, update_at_commit: bool,
                  wrong_path: bool, op: str = "op.") -> str:
    """Predict the fetched branch at ``pc`` whose kind, outcome and
    target are ``{op}bk``, ``{op}taken`` and ``{op}target``: sets
    ``mis`` (wrong direction), ``mf`` (misfetch) and, with wrong paths,
    ``wps`` (the wrong-path fetch PC the prediction chose, None when it
    follows from the outcome) — ``BranchPredictorUnit.resolve``.  The
    RAS is peeked, never popped.  Without ``update_at_commit`` the
    predictor is trained right after (fetch-time training)."""
    wps = "wps = None\n" if wrong_path else ""
    scheme = inline_scheme(predictor)
    if scheme == "perfect":
        return "mis = False\nmf = False\n" + wps
    if scheme is None:
        text = "resolution = bp_resolve(pc, op.bk, op.taken, op.target)\n"
        text += ("op.resolution = resolution\n" if update_at_commit
                 else update_chunk(predictor, "pc", "resolution"))
        text += "mis = resolution.mispredicted\nmf = resolution.misfetch\n"
        if wrong_path:
            text += "wps = resolution.wrong_path_start\n"
        return text
    _, slot, _, index = direction(predictor)
    taken_wrong = "mis = True\nwps = pt\n" if wrong_path else "mis = True\n"
    text = wps + (f"bk = {op}bk\n" if op else "") + f"""bw = pc >> {_WORD_SHIFT}
if bk is BK_RETURN:
    pt = ras[ras_top - 1] if ras_n else None
else:
{_nested(btb(predictor, op)[1], 4)}
mis = False
mf = False
if bk is BK_COND:
{_nested(slot, 4)}
    if pt is not None and pht[{index}] > 1:
        if {op}taken:
            mf = pt != {op}target
        else:
{_nested(taken_wrong, 12)}
    elif {op}taken:
        mis = True
else:
    mf = pt != {op}target
"""
    if not update_at_commit:
        text += update_chunk(predictor, "pc", "None", op)
    return text


def update_chunk(predictor: PredictorConfig, pc_var: str,
                 resolution: str, op: str = "op.") -> str:
    """Train the predictor on the branch at ``pc_var`` (fields read
    through ``op`` as in :func:`resolve_chunk`), in program order —
    ``BranchPredictorUnit.update``: the direction tables for
    conditional branches, the BTB for taken non-returns, RAS push on a
    call and pop on a return.  ``resolution`` is passed to the object
    model only."""
    scheme = inline_scheme(predictor)
    if scheme == "perfect":
        return ""
    if scheme is None:
        return (f"bp_update({pc_var}, op.bk, op.taken, op.target, "
                f"{resolution})\n")
    _, slot, history, index = direction(predictor)
    mask = (1 << predictor.history_length) - 1
    depth = predictor.ras_depth
    return (f"bk = {op}bk\n" if op else "") + f"""bw = {pc_var} >> {_WORD_SHIFT}
if bk is BK_COND:
{_nested(slot, 4)}
    bx = {index}
    bc = pht[bx]
    if {op}taken:
        if bc < 3:
            pht[bx] = bc + 1
        {history} = (({history} << 1) | 1) & {mask}
    else:
        if bc:
            pht[bx] = bc - 1
        {history} = ({history} << 1) & {mask}
if {op}taken and bk is not BK_RETURN:
{_nested(btb(predictor, op)[2], 4)}
if bk is BK_CALL:
    ras[ras_top] = {pc_var} + {INSTRUCTION_BYTES}
    ras_top = (ras_top + 1) % {depth}
    if ras_n < {depth}:
        ras_n += 1
elif bk is BK_RETURN and ras_n:
    ras_top = (ras_top - 1) % {depth}
    ras_n -= 1
"""


def predictor_source(predictor: PredictorConfig) -> str:
    """The source of ``make_predict()`` for an inline predictor form:
    each call powers on fresh tables and returns a
    ``predict(pc, bk, taken, target) -> (mispredicted, misfetch,
    wrong_path_start)`` that resolves the branch and trains on it at
    once — ``BranchPredictorUnit.resolve`` then ``update``."""
    state = predictor_state(predictor)
    # The scalar registers predict rebinds (it only mutates the tables).
    registers = [line.split(" = ")[0] for line in state.splitlines()
                 if line.endswith(" = 0")]
    declare = f"nonlocal {', '.join(registers)}\n" if registers else ""
    resolve = resolve_chunk(predictor, update_at_commit=False,
                            wrong_path=True, op="")
    return f"""
def make_predict():
    BK_COND = _BK_COND
    BK_CALL = _BK_CALL
    BK_RETURN = _BK_RETURN
{_nested(state, 4)}
    def predict(pc, bk, taken, target):
{_nested(declare + resolve, 8)}
        if mis and wps is None:
            wps = pc + {INSTRUCTION_BYTES}
        return mis, mf, wps
    return predict
"""


_PREDICTORS: BoundedMemo[str, Callable[[], Callable]] = \
    BoundedMemo("compiled predictors", 32)


def compile_predictor(predictor: PredictorConfig) -> Callable[[], Callable] | None:
    """The compiled ``make_predict`` factory of :func:`predictor_source`
    for ``predictor``, memoized per generated form; None for a scheme
    without an inline form or a subclassed config, which keep the
    object model."""
    if type(predictor) is not PredictorConfig or \
            inline_scheme(predictor) is None:
        return None
    source = predictor_source(predictor)
    factory = _PREDICTORS.get(source)
    if factory is not None:
        return factory
    namespace = {"_BK_COND": BranchKind.COND, "_BK_CALL": BranchKind.CALL,
                 "_BK_RETURN": BranchKind.RETURN}
    exec(compile(source, f"<predictor {inline_scheme(predictor)}>", "exec"),
         namespace)  # noqa: S102 - the source is generated above
    return _PREDICTORS.put(source, namespace["make_predict"])
