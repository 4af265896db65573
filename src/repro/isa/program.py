"""Assembled program container.

A :class:`Program` is what the assembler produces and what the
functional simulator consumes: a text segment of decoded instructions,
an initialized data segment, and a symbol table.  The memory layout
follows the SimpleScalar/SPIM convention:

* text at ``0x0040_0000``,
* static data at ``0x1000_0000``,
* stack growing down from ``0x7FFF_F000``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import INSTRUCTION_BYTES, Instruction

TEXT_BASE = 0x0040_0000
DATA_BASE = 0x1000_0000
STACK_TOP = 0x7FFF_F000


@dataclass
class Program:
    """An assembled program image.

    Attributes
    ----------
    instructions:
        Text segment, in address order starting at :attr:`text_base`.
    data:
        Initial contents of the static data segment.
    symbols:
        Label name → byte address (text and data labels both).
    entry:
        Address execution starts at (label ``main`` if present,
        otherwise the first text address).
    """

    instructions: list[Instruction] = field(default_factory=list)
    data: bytearray = field(default_factory=bytearray)
    symbols: dict[str, int] = field(default_factory=dict)
    text_base: int = TEXT_BASE
    data_base: int = DATA_BASE
    entry: int = TEXT_BASE

    @property
    def text_end(self) -> int:
        """First byte address past the text segment."""
        return self.text_base + INSTRUCTION_BYTES * len(self.instructions)

    def has_instruction(self, pc: int) -> bool:
        """True if ``pc`` addresses an instruction in the text segment."""
        if pc < self.text_base or pc >= self.text_end:
            return False
        return (pc - self.text_base) % INSTRUCTION_BYTES == 0

    def instruction_at(self, pc: int) -> Instruction:
        """Fetch the instruction at byte address ``pc``.

        Raises
        ------
        IndexError
            If ``pc`` is outside the text segment or misaligned.
        """
        if not self.has_instruction(pc):
            raise IndexError(f"no instruction at {pc:#010x}")
        return self.instructions[(pc - self.text_base) // INSTRUCTION_BYTES]

    def __len__(self) -> int:
        return len(self.instructions)

    def disassemble(self) -> str:
        """Render the text segment with addresses and label annotations."""
        by_address = {addr: name for name, addr in self.symbols.items()
                      if self.has_instruction(addr)}
        lines = []
        for index, instr in enumerate(self.instructions):
            pc = self.text_base + index * INSTRUCTION_BYTES
            if pc in by_address:
                lines.append(f"{by_address[pc]}:")
            lines.append(f"  {pc:#010x}:  {instr}")
        return "\n".join(lines)
