"""Decoded-program cache: the shared fast-execution substrate.

Every simulator in the repo (golden ISS, Serv timing model, RISSP RTL
harness) used to re-decode the instruction word at every retirement — the
dominant cost of the interpreter stack (~0.19 MIPS at the seed).  This
module memoizes the per-*address* work once per static instruction:

* :class:`DecodedImage` lazily maps a text address to a :class:`DecodedOp`
  holding the fetched word, the decoded :class:`~repro.isa.encoding.Instruction`,
  a precompiled executor closure from :func:`repro.isa.spec.compile_step`
  (immediates pre-extracted, format dispatch hoisted out of the inner
  loop), and the static classification the Serv cycle model needs — so
  per-instruction cycle costs are computed at decode time, not per step.
* Each op also carries its **recording plan** (:attr:`DecodedOp.record`):
  what the golden ISS's chunk recorder needs to write a retirement's RVFI
  row around the executor call, computed once here rather than per row.
* Entries are **invalidated on stores into cached text**: compiled store
  executors call back into :meth:`DecodedImage.invalidate`, and the golden
  ISS's reflective path does the same, so self-modifying programs
  (including the self-patched halt-stub region) re-decode transparently,
  recording plan included.  RISC-V stores are width-aligned and therefore
  never straddle a word, so invalidating the single covering word is
  exact.

Lazy decoding preserves the seed's error envelope: a data word is only
rejected as an illegal instruction if the pc actually reaches it, and
register-bound (RV32E) violations surface on first execution.
"""

from __future__ import annotations

from ..isa.encoding import DecodeError, decode
from ..isa.instructions import BRANCHES, LOADS, STORES, Format
from ..isa.spec import _LOAD_WIDTH, _STORE_WIDTH, compile_step

#: :attr:`DecodedOp.record` kinds: no memory access, load, store.
RECORD_PLAIN, RECORD_LOAD, RECORD_STORE = 0, 1, 2


class SimulationError(Exception):
    """Raised when execution leaves the architected envelope."""


class DecodedOp:
    """One static instruction: decoded fields plus its compiled executor.

    ``record`` is the recording plan ``(execute, word, rs1, rs2, rd, kind,
    imm, lanes, data_mask)``: the RVFI register fields (``rd`` is 0 when
    the instruction writes no register), a ``RECORD_*`` kind, the
    immediate, the byte-lane mask of a load or store and the store data
    mask.  It is None for instructions that must retire through the
    reflective path: system instructions (ecall/ebreak/Zicsr/mret/wfi)
    and loads to ``x0``, whose loaded value no register keeps.
    """

    __slots__ = ("pc", "word", "instr", "execute",
                 "is_mem", "is_branch", "is_jump", "record")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DecodedOp(pc={self.pc:#x}, {self.instr})"


class DecodedImage:
    """Lazy text-address -> :class:`DecodedOp` cache over one memory.

    ``ops`` is the ``pc -> DecodedOp`` cache itself and ``executors``
    mirrors it as a bare ``pc -> closure`` dict, so hot loops can dispatch
    with a single dictionary probe; both are kept in sync by :meth:`get`
    and :meth:`invalidate`.
    """

    def __init__(self, memory, num_regs: int = 16):
        self.memory = memory
        self.num_regs = num_regs
        self.ops: dict[int, DecodedOp] = {}
        self.executors: dict[int, object] = {}

    def get(self, pc: int) -> DecodedOp:
        """Return the decoded op at ``pc``, compiling it on first use."""
        op = self.ops.get(pc)
        if op is None:
            op = self._compile(pc)
        return op

    def invalidate(self, addr: int) -> None:
        """Drop the cached entry whose word covers byte address ``addr``."""
        base = addr & ~0x3 & 0xFFFFFFFF
        if self.ops.pop(base, None) is not None:
            self.executors.pop(base, None)

    def _compile(self, pc: int) -> DecodedOp:
        word = self.memory.fetch(pc)
        try:
            instr = decode(word)
        except DecodeError as exc:
            raise SimulationError(
                f"illegal instruction at {pc:#x}: {exc}") from exc
        # The Zicsr immediate forms carry a 5-bit uimm in the rs1 field —
        # not a register number, so it is exempt from the RV32E bound.
        rs1_is_reg = not instr.definition.csr_uimm
        if instr.rd >= self.num_regs \
                or (rs1_is_reg and instr.rs1 >= self.num_regs) \
                or instr.rs2 >= self.num_regs:
            raise SimulationError(
                f"{instr.mnemonic} at {pc:#x} uses registers outside RV32E")
        op = DecodedOp()
        op.pc = pc
        op.word = word
        op.instr = instr
        mnemonic = instr.mnemonic
        op.is_mem = mnemonic in LOADS or mnemonic in STORES
        op.is_branch = mnemonic in BRANCHES
        op.is_jump = mnemonic in ("jal", "jalr")
        op.execute = compile_step(instr, store_hook=self.invalidate)
        op.record = _record_plan(op)
        self.ops[pc] = op
        self.executors[pc] = op.execute
        return op


def _record_plan(op: DecodedOp) -> tuple | None:
    """The :attr:`DecodedOp.record` of a freshly compiled op."""
    instr = op.instr
    mnemonic = instr.mnemonic
    rd = instr.rd
    kind = RECORD_PLAIN
    lanes = data_mask = 0
    if mnemonic in _LOAD_WIDTH:
        if rd == 0:
            return None
        kind = RECORD_LOAD
        lanes = (1 << _LOAD_WIDTH[mnemonic][0]) - 1
    elif mnemonic in _STORE_WIDTH:
        kind, rd = RECORD_STORE, 0
        width = _STORE_WIDTH[mnemonic]
        lanes = (1 << width) - 1
        data_mask = (1 << (8 * width)) - 1
    elif mnemonic in BRANCHES or mnemonic == "fence":
        rd = 0
    elif instr.definition.fmt in (Format.SYS, Format.CSR):
        return None
    return (op.execute, op.word, instr.rs1, instr.rs2, rd, kind, instr.imm,
            lanes, data_mask)
