"""In-memory trace record types (Branch / Memory / Other).

The paper (Section V.A): *"ReSim's input trace consists of a record for
each dynamic instruction in a pre-decoded format.  Three formats are
used: Branch (B), Memory (M) and Other (O), each with its own fields and
length. [...] all formats include a Tag Bit field used for
mis-speculation handling."*

Design notes
------------
* Records carry **no PC**: ReSim reconstructs the program counter from
  sequential flow plus branch targets, which is what keeps the trace in
  the 41-47 bits/instruction range reported in Table 3.
* Register fields use the *trace register namespace*: ``0`` means "no
  register" (``$zero`` is never a dependence), ``1..31`` are GPRs, and
  ``32``/``33`` are HI/LO.  Six bits per field.
* Multiply/divide writes the HI/LO pair; the second destination is
  implicit in the functional-unit class, so it costs no trace bits
  (:meth:`TraceRecord.dest_registers` reconstructs it).

Records and rows
----------------
A stored trace decodes into **rows**: one plain tuple per record in
the layout :data:`ROW_FIELDS` declares, with no object built per
instruction.  Rows are what the synthetic generator emits, what the
encoder packs and the trace statistics count, and what the decoder,
the decoded-segment cache, the generated engine, trace profiling and
the shard probe read.
The record classes below are the API for tools, the reference
engine tier and :class:`~repro.trace.source.InMemorySource`;
:func:`record_row` and :func:`row_record` convert between the two
forms, and ``row_record(record_row(r)) == r`` for every record.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, fields

from repro.isa.opcodes import BranchKind, FuClass

#: Trace register namespace constants.
TRACE_REG_NONE = 0
TRACE_REG_HI = 32
TRACE_REG_LO = 33
TRACE_REG_LIMIT = 64  # 6-bit fields


class RecordKind(enum.IntEnum):
    """The three record formats, as encoded in the 2-bit kind field."""

    OTHER = 0
    BRANCH = 1
    MEMORY = 2


#: Functional-unit classes as encoded in the 3-bit trace field.
FU_NUMBERS: dict[FuClass, int] = {
    FuClass.ALU: 0,
    FuClass.MUL: 1,
    FuClass.DIV: 2,
    FuClass.LOAD: 3,
    FuClass.STORE: 4,
    FuClass.BRANCH: 5,
    FuClass.NOP: 6,
}
#: The same table by trace code; None marks the one code no class uses.
NUMBER_TO_FU: tuple[FuClass | None, ...] = tuple(
    map({v: k for k, v in FU_NUMBERS.items()}.get, range(8)))
#: The FU classes only an M record carries, by its store bit.
MEMORY_FUS = (FuClass.LOAD, FuClass.STORE)

#: Branch sub-classes as encoded in the 3-bit type field of B records.
BRANCH_NUMBERS: dict[BranchKind, int] = {
    BranchKind.COND: 0,
    BranchKind.JUMP: 1,
    BranchKind.CALL: 2,
    BranchKind.RETURN: 3,
    BranchKind.INDIRECT: 4,
}
#: The same table by trace code; None marks codes no sub-class uses.
NUMBER_TO_BRANCH: tuple[BranchKind | None, ...] = tuple(
    map({v: k for k, v in BRANCH_NUMBERS.items()}.get, range(8)))


def _check_trace_reg(value: int, field: str) -> None:
    if not 0 <= value < TRACE_REG_LIMIT:
        raise ValueError(f"{field}={value} outside 6-bit trace register space")


def _check_common_fields(record: TraceRecord) -> None:
    """Shared field validation (zero-arg ``super()`` is unavailable in
    ``slots=True`` dataclasses, so subclasses call this explicitly)."""
    _check_trace_reg(record.dest, "dest")
    _check_trace_reg(record.src1, "src1")
    _check_trace_reg(record.src2, "src2")


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """Fields common to all three record formats.

    Attributes
    ----------
    tag:
        The mis-speculation Tag bit.  ``True`` marks a wrong-path
        instruction injected after a mispredicted branch; such records
        are fetched by ReSim until the branch resolves at Commit and
        any remainder is discarded.
    fu:
        Functional-unit class; determines issue resources and latency.
    dest, src1, src2:
        Trace-namespace register numbers (0 = none).
    """

    tag: bool = False
    fu: FuClass = FuClass.ALU
    dest: int = TRACE_REG_NONE
    src1: int = TRACE_REG_NONE
    src2: int = TRACE_REG_NONE

    def __post_init__(self) -> None:
        _check_common_fields(self)

    @property
    def kind(self) -> RecordKind:
        return RecordKind.OTHER

    @property
    def is_wrong_path(self) -> bool:
        """Alias for the Tag bit with the paper's meaning spelled out."""
        return self.tag

    def dest_registers(self) -> tuple[int, ...]:
        """Destination registers, including the implicit HI/LO pair."""
        if self.fu in (FuClass.MUL, FuClass.DIV):
            return (TRACE_REG_HI, TRACE_REG_LO)
        if self.dest == TRACE_REG_NONE:
            return ()
        return (self.dest,)

    def src_registers(self) -> tuple[int, ...]:
        """Source registers actually carried by the record."""
        return tuple(r for r in (self.src1, self.src2) if r != TRACE_REG_NONE)


@dataclass(frozen=True, slots=True)
class OtherRecord(TraceRecord):
    """Format O: any instruction that is neither memory nor control
    flow (so never a LOAD or STORE, which need an address)."""

    def __post_init__(self) -> None:
        _check_common_fields(self)
        if self.fu in MEMORY_FUS:
            raise ValueError(f"other record fu={self.fu} is a memory class")

    @property
    def kind(self) -> RecordKind:
        return RecordKind.OTHER


@dataclass(frozen=True, slots=True)
class MemoryRecord(TraceRecord):
    """Format M: loads and stores.

    ``address`` is the 32-bit effective virtual address; ``size_log2``
    encodes the access size (0→1 B, 1→2 B, 2→4 B, 3→8 B) in two bits.
    """

    is_store: bool = False
    address: int = 0
    size_log2: int = 2

    def __post_init__(self) -> None:
        _check_common_fields(self)
        if not 0 <= self.address < (1 << 32):
            raise ValueError(f"address {self.address:#x} not a 32-bit value")
        if not 0 <= self.size_log2 <= 3:
            raise ValueError(f"size_log2 {self.size_log2} out of range")
        expected = FuClass.STORE if self.is_store else FuClass.LOAD
        if self.fu is not expected:
            raise ValueError(
                f"memory record fu={self.fu} inconsistent with is_store={self.is_store}"
            )

    @property
    def kind(self) -> RecordKind:
        return RecordKind.MEMORY

    @property
    def size_bytes(self) -> int:
        return 1 << self.size_log2


@dataclass(frozen=True, slots=True)
class BranchRecord(TraceRecord):
    """Format B: all control-flow instructions.

    ``taken`` and ``target`` describe the *actual* outcome on the traced
    path; ReSim compares them against its own branch predictor state to
    detect mispredictions and misfetches.  For wrong-path (tagged)
    branch records the outcome fields hold the static fall-through
    information and are never used for redirection.
    """

    branch_kind: BranchKind = BranchKind.COND
    taken: bool = False
    target: int = 0

    def __post_init__(self) -> None:
        _check_common_fields(self)
        if self.fu is not FuClass.BRANCH:
            raise ValueError("branch record must have fu=BRANCH")
        if self.branch_kind is BranchKind.NONE:
            raise ValueError("branch record needs a concrete branch kind")
        if not 0 <= self.target < (1 << 32):
            raise ValueError(f"target {self.target:#x} not a 32-bit value")

    @property
    def kind(self) -> RecordKind:
        return RecordKind.BRANCH

    @property
    def is_unconditional(self) -> bool:
        """Jumps, calls and returns are always taken."""
        return self.branch_kind is not BranchKind.COND


#: The row layout: position -> field name.  The last three positions
#: hold each format's own fields, ``(is_store, address, size_log2)``
#: in M rows and ``(branch_kind, taken, target)`` in B rows; O rows
#: pad them with None.  ``kind`` is the format's plain int code.
ROW_FIELDS = ("kind", "tag", "fu", "dest", "src1", "src2", "f1", "f2", "f3")
#: Where a row holds the Tag bit.
ROW_TAG = ROW_FIELDS.index("tag")
#: One decoded record in the row layout.
Row = tuple
_OTHER_CODE, _BRANCH_CODE, _MEMORY_CODE = (
    RecordKind.OTHER.value, RecordKind.BRANCH.value, RecordKind.MEMORY.value)


def record_row(record: TraceRecord) -> Row:
    """The row of one record (field values carried as they are).

    >>> record_row(OtherRecord(tag=True, dest=1))
    (0, True, <FuClass.ALU: 'alu'>, 1, 0, 0, None, None, None)
    """
    if isinstance(record, MemoryRecord):
        return (_MEMORY_CODE, record.tag, record.fu, record.dest, record.src1,
                record.src2, record.is_store, record.address, record.size_log2)
    if isinstance(record, BranchRecord):
        return (_BRANCH_CODE, record.tag, record.fu, record.dest, record.src1,
                record.src2, record.branch_kind, record.taken, record.target)
    return (_OTHER_CODE, record.tag, record.fu, record.dest, record.src1,
            record.src2, None, None, None)


def _row_constructor(cls: type[TraceRecord]) -> Callable[[Row], TraceRecord]:
    """A constructor of record class ``cls`` from its row that skips
    ``__post_init__`` — rows come from the trace decoder, whose bit
    layout bounds what those checks test (6-bit registers, 32-bit
    address and target) and which checks the rest itself (an FU class
    that fits the format, a concrete branch kind), or from
    :func:`record_row` of a record that passed them."""
    names = [field.name for field in fields(cls)]
    namespace = {f"set_{name}": getattr(cls, name).__set__ for name in names}
    namespace.update(new=object.__new__, cls=cls)
    unpack = ", ".join(["_", *names, *["_"] * (len(ROW_FIELDS) - 1 - len(names))])
    body = "".join(f"    set_{name}(record, {name})\n" for name in names)
    exec(f"def make(row):\n    {unpack} = row\n    record = new(cls)\n"  # noqa: S102
         f"{body}    return record\n", namespace)
    return namespace["make"]


#: Record constructors from rows, by the row's kind code (O, B, M).
_ROW_RECORDS = tuple(map(_row_constructor, (OtherRecord, BranchRecord, MemoryRecord)))


def row_record(row: Row) -> TraceRecord:
    """The record of one row: the inverse of :func:`record_row`.

    >>> row_record((0, True, FuClass.ALU, 1, 0, 0, None, None, None))
    OtherRecord(tag=True, fu=<FuClass.ALU: 'alu'>, dest=1, src1=0, src2=0)
    """
    return _ROW_RECORDS[row[0]](row)
