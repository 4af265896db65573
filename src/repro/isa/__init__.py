"""A SimpleScalar-PISA-like integer ISA.

ReSim is *almost ISA independent*: because it is trace-driven, only the
trace format matters, and the paper notes it "supports all SimpleScalar
ISAs, i.e. PISA, Alpha, etc.".  The trace, however, has to come from a
functional simulator, and the paper uses a modified SimpleScalar
(``sim-bpred``) for that.  This package provides the equivalent
substrate: a PISA-flavoured integer instruction set (SPECint needs no
floating point), a two-pass assembler with the usual pseudo-instructions,
and a binary codec for the fixed 64-bit PISA-style instruction word.

Public API
----------
* :class:`~repro.isa.opcodes.Opcode` / :class:`~repro.isa.opcodes.FuClass`
* :class:`~repro.isa.instruction.Instruction`
* :class:`~repro.isa.assembler.Assembler` and :func:`~repro.isa.assembler.assemble`
* :class:`~repro.isa.program.Program`
* register name tables in :mod:`repro.isa.registers`
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.isa.assembler": "Assembler AssemblyError assemble",
    "repro.isa.instruction": "Instruction",
    "repro.isa.opcodes": "FuClass OPCODE_INFO Opcode",
    "repro.isa.program": "Program",
    "repro.isa.registers": "HI LO REG_COUNT REG_NAMES ZERO register_index "
                           "register_name",
})
