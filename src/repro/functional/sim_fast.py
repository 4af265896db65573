"""Plain functional simulation — the SimpleScalar ``sim-fast`` analogue.

Executes a program to completion and collects the simple statistics a
functional simulator offers (instruction counts by class, program
output).  No timing, no predictor: this is the fastest mode, and it is
what the trace-generation flow builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.functional.executor import Executor
from repro.functional.state import MachineState
from repro.isa.opcodes import FuClass
from repro.isa.program import Program


@dataclass
class SimFastResult:
    """Counts and outputs from one functional run."""

    instructions: int = 0
    branches: int = 0
    taken_branches: int = 0
    loads: int = 0
    stores: int = 0
    multiplies: int = 0
    divides: int = 0
    output: str = ""
    exit_code: int = 0

    def mix_summary(self) -> str:
        """One-line instruction-mix report (fractions of total)."""
        if self.instructions == 0:
            return "no instructions executed"
        total = self.instructions
        return (
            f"{total} instructions: "
            f"{100.0 * self.branches / total:.1f}% branch, "
            f"{100.0 * self.loads / total:.1f}% load, "
            f"{100.0 * self.stores / total:.1f}% store"
        )


class SimFast:
    """Run programs functionally, as fast as the interpreter allows."""

    def __init__(self, max_instructions: int = 50_000_000) -> None:
        self._max_instructions = max_instructions

    def run(self, program: Program,
            inputs: list[int] | None = None) -> SimFastResult:
        """Execute ``program`` to completion and return the statistics."""
        state = MachineState(program)
        executor = Executor(inputs=inputs)
        result = SimFastResult()
        for step in executor.run(state, self._max_instructions):
            result.instructions += 1
            instr = step.instruction
            fu = instr.fu_class
            if instr.is_branch:
                result.branches += 1
                if step.taken:
                    result.taken_branches += 1
            elif fu is FuClass.LOAD:
                result.loads += 1
            elif fu is FuClass.STORE:
                result.stores += 1
            elif fu is FuClass.MUL:
                result.multiplies += 1
            elif fu is FuClass.DIV:
                result.divides += 1
        result.output = "".join(state.output)
        result.exit_code = state.exit_code
        return result
