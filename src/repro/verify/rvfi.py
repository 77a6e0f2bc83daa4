"""RVFI trace checking — the riscv-formal analog (§3.4.2).

riscv-formal attaches to a core through the RISC-V Formal Interface and
checks, per retired instruction: correct execution against the ISA spec,
register-file consistency, and PC chaining.  The same three families of
checks run here over :class:`repro.sim.tracing.RvfiRecord` streams emitted
by either simulator:

  * **insn checks** — re-execute each retired instruction with the spec and
    compare ``pc_wdata``, ``rd_addr``/``rd_wdata`` and store effects,
  * **reg checks** — maintain a shadow register file from retired writes
    and require every ``rs*_rdata`` to match it,
  * **pc checks** — ``pc_rdata`` of instruction *n+1* must equal
    ``pc_wdata`` of instruction *n*, and ``order`` must be gapless.

Machine-mode extension (PR 3, multi-source in PR 5): the checker follows
the riscv-formal ``rvfi_trap``/``rvfi_intr`` conventions — a trapping
instruction retires with no architectural side effects and ``pc_wdata``
pointing at the handler; the first instruction of an interrupt handler
carries ``intr``, holding the *arbitrated exception code* of the source
that won (7 = machine timer, 16 = sensor data-ready), and is exempt from
the pc chain.  CSR state is verified through a *shadow CSR file* that
mirrors the shadow register file: values it has observed (via Zicsr
writes or trap entries) are checked exactly, values it has not yet
observed are learned from the trace — so a corrupted ``mepc``/``mtvec``/
Zicsr data path is caught as soon as the state flows back through an
``mret``, a trap entry or a CSR read.  The Zicsr read-only rule is
pinned too: a row where a write to a read-only CSR (``mip``) retired
without trapping is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Sequence

from ..isa.bits import sign_extend, to_u32
from ..isa.csrs import (
    CAUSE_BREAKPOINT,
    CAUSE_ECALL_M,
    CAUSE_ILLEGAL_INSTRUCTION,
    CAUSE_INTERRUPT,
    INTERRUPT_SOURCES,
    MCAUSE,
    MEPC,
    MIP,
    MSTATUS,
    MSTATUS_MIE,
    MSTATUS_MPIE,
    MTVAL,
    MTVEC,
)
from ..isa.encoding import DecodeError, decode
from ..isa.instructions import ALL_INSTRUCTIONS, CSR_OPS
from ..isa.spec import SpecError, step
from ..sim.csr import CsrError, READ_ONLY_CSRS, warl_mask
from ..sim.tracing import RvfiRecord, RvfiTrace

#: Exception codes an interrupt row's ``intr`` column may legally carry
#: (the arbitrated cause, see :data:`repro.isa.csrs.INTERRUPT_SOURCES`).
_INTR_CODES = frozenset(cause & 0x3F for _, cause in INTERRUPT_SOURCES)

_CSR_MNEMONICS = set(CSR_OPS)
_SYSTEM_MNEMONICS = _CSR_MNEMONICS | {"mret", "wfi"}

#: mnemonic -> (reads rs1, reads rs2): which source-register columns the
#: reg checks hold against the shadow file (the Zicsr immediate forms
#: carry a uimm, not a register, in the rs1 field).
_OPERAND_USE = {
    d.mnemonic: (d.fmt.value in ("R", "I", "S", "B")
                 or (d.fmt.value == "CSR" and not d.csr_uimm),
                 d.fmt.value in ("R", "S", "B"))
    for d in ALL_INSTRUCTIONS}

#: Adapts an :class:`RvfiRecord` to the field tuple ``RvfiTrace.rows``
#: yields, so :func:`check_trace` has one loop for every input.
_record_fields = attrgetter(*RvfiTrace.FIELDS)


@dataclass
class RvfiCheckReport:
    records_checked: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.records_checked > 0 and not self.errors


def _trap_cause(insn: int) -> int:
    """Cause code a trap row's instruction word implies."""
    try:
        mnemonic = decode(insn).mnemonic
    except DecodeError:
        return CAUSE_ILLEGAL_INSTRUCTION
    if mnemonic == "ecall":
        return CAUSE_ECALL_M
    if mnemonic == "ebreak":
        return CAUSE_BREAKPOINT
    return CAUSE_ILLEGAL_INSTRUCTION


class _ShadowCsrs:
    """Learn-then-check model of the M-mode CSR state (mip excluded —
    MTIP is wired from the timer and not reconstructible from a trace)."""

    def __init__(self):
        self.values: dict[int, int] = {}

    def known(self, addr: int) -> bool:
        return addr in self.values

    def write(self, addr: int, value: int) -> None:
        if addr == MIP:
            return
        mask = warl_mask(addr)
        old = self.values.get(addr, 0)
        self.values[addr] = (old & ~mask) | (to_u32(value) & mask)

    def stack_mie(self) -> None:
        if MSTATUS in self.values:
            mie = self.values[MSTATUS] & MSTATUS_MIE
            self.values[MSTATUS] = (self.values[MSTATUS]
                                    & ~(MSTATUS_MIE | MSTATUS_MPIE)) \
                | (MSTATUS_MPIE if mie else 0)

    def unstack_mie(self) -> None:
        if MSTATUS in self.values:
            mpie = self.values[MSTATUS] & MSTATUS_MPIE
            self.values[MSTATUS] = (self.values[MSTATUS] & ~MSTATUS_MIE) \
                | MSTATUS_MPIE | (MSTATUS_MIE if mpie else 0)

    def trap_entry(self, epc: int, cause: int, tval: int) -> None:
        self.stack_mie()
        self.values[MEPC] = to_u32(epc) & ~0x3
        self.values[MCAUSE] = to_u32(cause)
        self.values[MTVAL] = to_u32(tval)


def check_trace(trace: Sequence[RvfiRecord],
                num_regs: int = 16,
                initial_regs: dict[int, int] | None = None,
                max_errors: int = 25) -> RvfiCheckReport:
    """Validate a retirement trace against the executable spec.

    ``trace`` is the columnar :class:`~repro.sim.tracing.RvfiTrace`, read
    as plain field tuples through :meth:`~repro.sim.tracing.RvfiTrace.rows`
    (no record is materialized), or any other sequence of
    :class:`RvfiRecord` (a plain list, say), adapted to the same tuples —
    one checking loop either way.
    """
    report = RvfiCheckReport()
    errors = report.errors
    shadow: dict[int, int] = dict(initial_regs or {})
    csrs = _ShadowCsrs()
    prev_pc_wdata: int | None = None
    prev_order: int | None = None
    rows = trace.rows() if isinstance(trace, RvfiTrace) \
        else map(_record_fields, trace)

    # The spec callbacks are built once; they read the row under check
    # (and its decoded instruction) through the loop variables below.
    def load(addr: int, width: int, signed: bool) -> int:
        # Model the load from the record's own memory view.
        offset = (addr - (mem_addr & ~0x3)) & 0x3 \
            if mem_rmask else addr & 0x3
        raw = mem_rdata
        if width == 4:
            value = raw
        else:
            value = (raw >> (8 * offset)) & ((1 << (8 * width)) - 1) \
                if mem_rmask == 0b1111 else raw
        if signed and width < 4:
            value = to_u32(sign_extend(value, 8 * width))
        return value

    def read_csr(addr: int) -> int:
        # Shadow-known values are checked exactly; unobserved ones are
        # learned from the record itself (rd for Zicsr reads, the
        # redirect target for mret) and verified self-consistently.
        if csrs.known(addr):
            return csrs.values[addr]
        if mnemonic in _CSR_MNEMONICS and rd_addr:
            return rd_wdata
        if mnemonic == "mret":
            return pc_wdata
        return 0

    for (order, insn, pc_rdata, pc_wdata, rs1_addr, rs2_addr, rs1_rdata,
         rs2_rdata, rd_addr, rd_wdata, mem_addr, mem_rmask, mem_wmask,
         mem_rdata, mem_wdata, trap, intr) in rows:
        if len(errors) >= max_errors:
            break
        report.records_checked += 1
        where = f"order={order} pc={pc_rdata:#x}"

        # --- pc checks -------------------------------------------------
        if prev_order is not None and order != prev_order + 1:
            errors.append(f"{where}: order gap after {prev_order}")
        prev_order = order
        if intr:
            # Interrupt entry redirected the pc between retirements; the
            # handler address replaces the chain, and the interrupted pc
            # became mepc.  The intr column carries the arbitrated
            # exception code (mcause low bits) of the source that won.
            if intr not in _INTR_CODES:
                errors.append(
                    f"{where}: intr carries unknown interrupt code "
                    f"{intr}")
            if csrs.known(MTVEC) \
                    and pc_rdata != csrs.values[MTVEC] & ~0x3:
                errors.append(
                    f"{where}: interrupt entered at {pc_rdata:#x}, "
                    f"mtvec is {csrs.values[MTVEC]:#x}")
            if prev_pc_wdata is not None:
                # Full trap-entry model: stacks MIE and resets MTVAL too.
                csrs.trap_entry(prev_pc_wdata, CAUSE_INTERRUPT | intr, 0)
        elif prev_pc_wdata is not None and pc_rdata != prev_pc_wdata:
            errors.append(
                f"{where}: pc_rdata != previous pc_wdata "
                f"{prev_pc_wdata:#x}")
        prev_pc_wdata = pc_wdata

        # --- trap rows ---------------------------------------------------
        if trap:
            if csrs.known(MTVEC) \
                    and pc_wdata != csrs.values[MTVEC] & ~0x3:
                errors.append(
                    f"{where}: trap redirected to {pc_wdata:#x}, "
                    f"mtvec is {csrs.values[MTVEC]:#x}")
            if rd_addr or mem_wmask:
                errors.append(
                    f"{where}: trapping instruction has side effects")
            cause = _trap_cause(insn)
            csrs.trap_entry(pc_rdata, cause,
                            insn if cause == CAUSE_ILLEGAL_INSTRUCTION
                            else 0)
            continue

        # --- reg checks --------------------------------------------------
        try:
            instr = decode(insn)
        except DecodeError as exc:
            errors.append(f"{where}: undecodable insn: {exc}")
            continue
        mnemonic = instr.mnemonic
        uses_rs1, uses_rs2 = _OPERAND_USE[mnemonic]
        if uses_rs1 and rs1_addr in shadow:
            want = shadow[rs1_addr] if rs1_addr else 0
            if rs1_rdata != want:
                errors.append(
                    f"{where}: rs1 x{rs1_addr} read "
                    f"{rs1_rdata:#x}, shadow {want:#x}")
        if uses_rs2 and rs2_addr in shadow:
            want = shadow[rs2_addr] if rs2_addr else 0
            if rs2_rdata != want:
                errors.append(
                    f"{where}: rs2 x{rs2_addr} read "
                    f"{rs2_rdata:#x}, shadow {want:#x}")

        # --- insn checks -------------------------------------------------
        csr_known = True
        is_system = mnemonic in _SYSTEM_MNEMONICS
        if is_system:
            if mnemonic in _CSR_MNEMONICS:
                source_addr = instr.imm & 0xFFF
            else:
                source_addr = MEPC
            csr_known = csrs.known(source_addr)

        try:
            expected = step(instr, pc_rdata, rs1_rdata, rs2_rdata,
                            load if mem_rmask else None,
                            read_csr if is_system else None)
        except (SpecError, CsrError) as exc:
            errors.append(f"{where}: spec refusal: {exc}")
            continue
        if pc_wdata != expected.next_pc:
            errors.append(
                f"{where}: pc_wdata {pc_wdata:#x} != spec "
                f"{expected.next_pc:#x}")
        want_rd = expected.rd or 0
        if rd_addr != want_rd:
            errors.append(
                f"{where}: rd_addr {rd_addr} != spec {want_rd}")
        elif want_rd and csr_known and rd_wdata != expected.rd_data:
            errors.append(
                f"{where}: rd_wdata {rd_wdata:#x} != spec "
                f"{expected.rd_data:#x}")
        if expected.mem_write is not None:
            mw = expected.mem_write
            if not mem_wmask:
                errors.append(f"{where}: missing store effect")
            else:
                if mem_addr != mw.addr:
                    errors.append(
                        f"{where}: store addr {mem_addr:#x} != "
                        f"{mw.addr:#x}")
                if mem_wdata != mw.data:
                    errors.append(
                        f"{where}: store data {mem_wdata:#x} != "
                        f"{mw.data:#x}")
        elif mem_wmask:
            errors.append(f"{where}: spurious store effect")

        if expected.csr_write is not None:
            write_addr, write_value = expected.csr_write
            if write_addr in READ_ONLY_CSRS:
                # Zicsr rule the PR 5 audit pinned: a *write* to a
                # read-only CSR must raise illegal instruction — it can
                # never appear as a plain retirement.  (Pure-read forms
                # produce no csr_write and are exempt.)
                errors.append(
                    f"{where}: {mnemonic} wrote read-only CSR "
                    f"{write_addr:#x} without trapping")
            # The written value is only trustworthy when the old value was
            # observable: shadow-known, read out through rd, or irrelevant
            # (csrrw/csrrwi overwrite unconditionally).  A blind
            # read-modify-write (csrrs/csrrc with rd=x0 on an unobserved
            # CSR) must *invalidate* the shadow, not learn a guess.
            old_observable = csr_known or rd_addr \
                or mnemonic in ("csrrw", "csrrwi")
            try:
                if old_observable:
                    csrs.write(write_addr, write_value)
                else:
                    csrs.values.pop(write_addr, None)
            except CsrError:
                pass    # real sims trap these; a trace row cannot carry one
        if expected.is_mret:
            csrs.unstack_mie()

        if want_rd:
            shadow[want_rd] = rd_wdata if not csr_known \
                else expected.rd_data

    return report
