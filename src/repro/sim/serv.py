"""Timing model of Serv, the bit-serial RISC-V core used as baseline.

Serv processes one *bit* of the datapath per clock, so a 32-bit operation
takes ~32 clocks; the paper uses an average CPI of 32 for the Figure 9
energy-per-instruction comparison.  Functionally Serv retires the same
architectural effects as any RV32E core, so this model wraps the golden ISS
and layers the bit-serial cycle accounting on top.

Cycle accounting rides the shared decoded-op cache
(:mod:`repro.sim.decoded`): the memory/branch/jump classification that
determines an instruction's cost is computed once per static instruction at
decode time (the seed decoded every retired word a *second* time just for
cycle counting), so the Serv model now runs at golden-ISS fast-path speed.

Machine-mode traps and the SoC (PR 3) come for free from the wrapped
golden ISS: system instructions cost one full serial word pass, trap/
interrupt entries redirect the pc exactly as on the golden model (the
bit-serial redirect penalty is charged through the ordinary
``branch_extra`` term when the next pc diverges from pc+4).  With a SoC
attached the model runs retirement-by-retirement through the golden
reference path so the interrupt check stays per-retirement; the pure
compute fast loop is untouched.

The *structural* model of Serv (gates, flip-flop fraction) used by the
synthesis and physical-implementation experiments lives in
:mod:`repro.synth.serv_model`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.program import DEFAULT_MEM_SIZE, Program
from ..isa.spec import DEFER_SYSTEM, HALT_EBREAK
from .decoded import SimulationError
from .golden import GoldenSim, RunResult
from ..isa.csrs import CAUSE_BREAKPOINT, CAUSE_ECALL_M, \
    CAUSE_ILLEGAL_INSTRUCTION

#: Datapath width — one cycle per bit.
_WORD_BITS = 32

#: Extra state-machine cycles for the two-phase memory handshake.
_MEM_EXTRA = 2

#: Extra cycles to redirect the serial PC on a taken control transfer.
_BRANCH_EXTRA = 1

_M32 = 0xFFFFFFFF


@dataclass(frozen=True)
class ServConfig:
    """Cycle model parameters (defaults reproduce the paper's CPI ≈ 32)."""

    bits: int = _WORD_BITS
    mem_extra: int = _MEM_EXTRA
    branch_extra: int = _BRANCH_EXTRA


class ServSim:
    """Bit-serial execution: golden semantics + serial cycle accounting."""

    def __init__(self, program: Program, config: ServConfig | None = None,
                 mem_size: int = DEFAULT_MEM_SIZE, trace: bool = False,
                 soc: "object | None" = None):
        self.config = config or ServConfig()
        self._golden = GoldenSim(program, mem_size=mem_size, trace=trace,
                                 soc=soc)

    @property
    def soc(self):
        return self._golden.soc

    def _op_cycles(self, op, redirected: bool) -> int:
        """Serial cycles for one retirement of decoded ``op``.

        ``redirected`` is True when the next pc differs from pc+4 (the only
        case where a *branch* pays the redirect penalty; jal/jalr always do).
        """
        cycles = self.config.bits
        if op.is_mem:
            cycles += self.config.mem_extra
        if op.is_jump or (op.is_branch and redirected):
            cycles += self.config.branch_extra
        return cycles

    def run(self, max_instructions: int = 20_000_000) -> RunResult:
        """Run to halt; ``cycles`` reflects bit-serial execution."""
        golden = self._golden
        if golden._trace_enabled or golden.soc is not None:
            return self._run_stepped(max_instructions)
        op_cycles = self._op_cycles
        csr = golden.csr
        regs = golden.regs
        memory = golden.memory
        get_op = golden.image.get
        pc = golden.pc
        cycles = 0
        count = 0
        halted_by = "limit"
        try:
            while count < max_instructions:
                try:
                    op = get_op(pc)
                except SimulationError:
                    if not csr.traps_enabled:
                        raise
                    pc = csr.trap_enter(CAUSE_ILLEGAL_INSTRUCTION, pc,
                                        memory.fetch(pc))
                    cycles += self.config.bits
                    count += 1
                    continue
                next_pc = op.execute(regs, memory, pc)
                count += 1
                if next_pc >= 0:
                    cycles += op_cycles(op, next_pc != pc + 4)
                    pc = next_pc
                else:
                    cycles += op_cycles(op, False)
                    if next_pc == DEFER_SYSTEM:
                        pc, wfi_halt = golden._exec_system(pc, count - 1)
                        if wfi_halt:
                            halted_by = "wfi"
                            break
                        continue
                    if csr.traps_enabled:
                        pc = csr.trap_enter(
                            CAUSE_BREAKPOINT if next_pc == HALT_EBREAK
                            else CAUSE_ECALL_M, pc)
                        continue
                    pc = (pc + 4) & _M32
                    halted_by = "ebreak" if next_pc == HALT_EBREAK else "ecall"
                    break
        finally:
            golden.pc = pc
        return RunResult(exit_code=golden.read_reg(10),
                         instructions=count, cycles=cycles,
                         halted_by=halted_by, trace=[])

    def _run_stepped(self, max_instructions: int) -> RunResult:
        """Retirement-by-retirement loop through the golden reference path
        (used when tracing and/or a SoC is attached): cycle costs come
        from the decoded-op classification of each retired row."""
        from .tracing import RvfiTrace

        golden = self._golden
        cycles = 0
        count = 0
        trace = RvfiTrace(capacity=golden._trace_capacity) \
            if golden._trace_enabled else RvfiTrace(capacity=1)
        capacity = trace.capacity
        pc_rdata_col = trace.column("pc_rdata")
        pc_wdata_col = trace.column("pc_wdata")
        trap_col = trace.column("trap")
        halted_by = "limit"
        while count < max_instructions:
            halted, reason = golden.retire_one(count, trace)
            # Every retirement appends one row: the newest is at ``count``.
            slot = count if capacity is None else count % capacity
            pc_rdata, pc_wdata = pc_rdata_col[slot], pc_wdata_col[slot]
            trapped = trap_col[slot]
            if trapped:
                cycles += self.config.bits
            else:
                op = golden.image.get(pc_rdata)
                cycles += self._op_cycles(
                    op, pc_wdata != (pc_rdata + 4) & _M32)
            count += 1
            if halted:
                halted_by = reason
                break
        exit_code = golden._poweroff_code if halted_by == "poweroff" \
            else golden.read_reg(10)
        return RunResult(exit_code=exit_code,
                         instructions=count, cycles=cycles,
                         halted_by=halted_by,
                         trace=trace if golden._trace_enabled else [])


def run_program_serv(program: Program,
                     max_instructions: int = 20_000_000,
                     soc: "object | None" = None) -> RunResult:
    """Convenience wrapper mirroring :func:`repro.sim.golden.run_program`."""
    return ServSim(program, soc=soc).run(max_instructions)
