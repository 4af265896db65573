"""Architectural state for functional simulation.

Thirty-two 32-bit GPRs plus HI/LO, a program counter, and a sparse byte
memory.  The memory is a dictionary of 4 KB pages allocated on first
touch, which comfortably holds the data/stack footprints of the bundled
kernels without preallocating a 4 GB array.
"""

from __future__ import annotations

from repro.isa.program import Program, STACK_TOP
from repro.isa.registers import HI, LO, REG_COUNT, ZERO

_WORD_MASK = 0xFFFFFFFF
_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS


def to_signed(value: int) -> int:
    """Interpret a 32-bit pattern as a signed integer."""
    value &= _WORD_MASK
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


def to_unsigned(value: int) -> int:
    """Truncate an integer to its 32-bit pattern."""
    return value & _WORD_MASK


class MachineState:
    """Registers, memory, and PC of the simulated machine.

    Parameters
    ----------
    program:
        The assembled image to load: text is *not* copied into byte
        memory (instructions are fetched through the Program), data is.
    stack_pointer:
        Initial ``$sp``; defaults to the conventional stack top.
    """

    def __init__(self, program: Program,
                 stack_pointer: int = STACK_TOP) -> None:
        self.program = program
        self.pc = program.entry
        self.registers = [0] * REG_COUNT
        self.registers[29] = stack_pointer  # $sp
        self.registers[28] = program.data_base  # $gp
        self._pages: dict[int, bytearray] = {}
        self._load_data_segment()
        self.exited = False
        self.exit_code = 0
        self.output: list[str] = []

    def _load_data_segment(self) -> None:
        for offset, byte in enumerate(self.program.data):
            self.store_byte(self.program.data_base + offset, byte)

    # -- registers -----------------------------------------------------

    def read_reg(self, index: int) -> int:
        """Read a register; $zero always reads 0."""
        if index == ZERO:
            return 0
        return self.registers[index]

    def write_reg(self, index: int, value: int) -> None:
        """Write a register; writes to $zero are discarded."""
        if index == ZERO:
            return
        self.registers[index] = to_unsigned(value)

    @property
    def hi(self) -> int:
        return self.registers[HI]

    @hi.setter
    def hi(self, value: int) -> None:
        self.registers[HI] = to_unsigned(value)

    @property
    def lo(self) -> int:
        return self.registers[LO]

    @lo.setter
    def lo(self, value: int) -> None:
        self.registers[LO] = to_unsigned(value)

    # -- memory ----------------------------------------------------------

    def _page(self, address: int) -> bytearray:
        page_number = address >> _PAGE_BITS
        page = self._pages.get(page_number)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self._pages[page_number] = page
        return page

    def load_byte(self, address: int) -> int:
        """Read one byte (unsigned); untouched memory reads 0."""
        page = self._pages.get(address >> _PAGE_BITS)
        if page is None:
            return 0
        return page[address & (_PAGE_SIZE - 1)]

    def store_byte(self, address: int, value: int) -> None:
        """Write one byte."""
        self._page(address)[address & (_PAGE_SIZE - 1)] = value & 0xFF

    def load(self, address: int, size: int, signed: bool = True) -> int:
        """Little-endian load of ``size`` bytes."""
        value = 0
        for offset in range(size):
            value |= self.load_byte(address + offset) << (8 * offset)
        if signed and value & (1 << (8 * size - 1)):
            value -= 1 << (8 * size)
        return value

    def store(self, address: int, value: int, size: int) -> None:
        """Little-endian store of ``size`` bytes."""
        for offset in range(size):
            self.store_byte(address + offset, (value >> (8 * offset)) & 0xFF)

    def read_cstring(self, address: int, limit: int = 4096) -> str:
        """Read a NUL-terminated string (for the print-string syscall)."""
        chars = []
        for offset in range(limit):
            byte = self.load_byte(address + offset)
            if byte == 0:
                break
            chars.append(chr(byte))
        return "".join(chars)
