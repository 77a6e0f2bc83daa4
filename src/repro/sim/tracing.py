"""RVFI-style retirement records.

The paper verifies RISSPs with riscv-formal, whose RISC-V Formal Interface
(RVFI) reports, per retired instruction: the instruction word, pc before and
after, source/destination registers with their data, and any memory access.
Both the golden ISS and the RTL simulation of a generated RISSP emit these
records so the :mod:`repro.verify.rvfi` checker can compare them against the
executable spec.

Read-effect convention (shared by every producer so traces are comparable
field-by-field): ``mem_addr`` is the true byte address of the access,
``mem_rmask`` is ``(1 << width) - 1`` — lane bits counted from the accessed
address, not shifted by the sub-word offset — and ``mem_rdata`` is the
sub-word value sign- or zero-extended to 32 bits exactly as it lands in
``rd``.  :func:`load_read_fields` computes the triple from a raw aligned
memory word; the RTL harness uses it so byte/halfword loads record the same
fields the golden ISS does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, starmap
from typing import Iterator

from ..isa.bits import sign_extend, to_u32


@dataclass(frozen=True)
class RvfiRecord:
    """One retired instruction, RVFI-style."""

    order: int           # retirement index
    insn: int            # raw 32-bit instruction word
    pc_rdata: int        # pc of this instruction
    pc_wdata: int        # next pc
    rs1_addr: int
    rs2_addr: int
    rs1_rdata: int
    rs2_rdata: int
    rd_addr: int         # 0 when no register write
    rd_wdata: int        # 0 when rd_addr == 0
    mem_addr: int = 0
    mem_rmask: int = 0   # byte mask of a load (bit per byte, from addr)
    mem_wmask: int = 0   # byte mask of a store
    mem_rdata: int = 0
    mem_wdata: int = 0
    trap: int = 0        # this instruction trapped (ecall/ebreak/illegal):
                         # no architectural side effects, pc_wdata = handler
    intr: int = 0        # first instruction of an interrupt handler


class RvfiTrace:
    """Columnar RVFI retirement trace with optional ring-buffer capacity.

    Each RVFI field lives in its own column list, so recording a
    retirement is 17 integer appends through pre-bound ``list.append``
    methods (or, in ring mode, 17 in-place slot writes — zero allocation)
    via :meth:`append_row`, and no per-retirement object is ever built.
    Bulk consumers read it without materializing records either:
    :meth:`column` hands out a raw field column (the cosimulation compare
    and the coverage scorer use ``list ==`` and column scans),
    :meth:`rows` iterates plain field tuples in retirement order (the
    :func:`~repro.verify.rvfi.check_trace` loop) and :meth:`extend` copies
    another trace column by column.  It still quacks like a read-only
    sequence of :class:`RvfiRecord` — ``len(trace)``, ``trace[i]``,
    slicing and iteration materialize records on demand — for tests that
    copy and corrupt traces.

    With ``capacity=N`` the trace keeps only the newest N retirements
    (index 0 is the oldest *retained* row); ``total_appended`` still counts
    every retirement ever recorded.  An unbounded trace's length is its
    column length, so a bulk producer may write rows straight through
    :meth:`appenders`.
    """

    #: Field order shared by :meth:`append_row`, :meth:`row` and
    #: :meth:`rows`; matches the :class:`RvfiRecord` constructor.
    FIELDS = ("order", "insn", "pc_rdata", "pc_wdata", "rs1_addr",
              "rs2_addr", "rs1_rdata", "rs2_rdata", "rd_addr", "rd_wdata",
              "mem_addr", "mem_rmask", "mem_wmask", "mem_rdata",
              "mem_wdata", "trap", "intr")

    __slots__ = ("capacity", "_ring_appended", "_columns", "_appenders")

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self._ring_appended = 0
        if capacity is None:
            self._columns = tuple([] for _ in self.FIELDS)
            self._appenders = tuple(column.append
                                    for column in self._columns)
        else:
            self._columns = tuple([0] * capacity for _ in self.FIELDS)
            self._appenders = None

    def append_row(self, order: int, insn: int, pc_rdata: int,
                   pc_wdata: int, rs1_addr: int, rs2_addr: int,
                   rs1_rdata: int, rs2_rdata: int, rd_addr: int,
                   rd_wdata: int, mem_addr: int = 0, mem_rmask: int = 0,
                   mem_wmask: int = 0, mem_rdata: int = 0,
                   mem_wdata: int = 0, trap: int = 0, intr: int = 0) -> None:
        appenders = self._appenders
        if appenders is not None:
            (a_order, a_insn, a_pc_rdata, a_pc_wdata, a_rs1_addr,
             a_rs2_addr, a_rs1_rdata, a_rs2_rdata, a_rd_addr, a_rd_wdata,
             a_mem_addr, a_mem_rmask, a_mem_wmask, a_mem_rdata,
             a_mem_wdata, a_trap, a_intr) = appenders
            a_order(order)
            a_insn(insn)
            a_pc_rdata(pc_rdata)
            a_pc_wdata(pc_wdata)
            a_rs1_addr(rs1_addr)
            a_rs2_addr(rs2_addr)
            a_rs1_rdata(rs1_rdata)
            a_rs2_rdata(rs2_rdata)
            a_rd_addr(rd_addr)
            a_rd_wdata(rd_wdata)
            a_mem_addr(mem_addr)
            a_mem_rmask(mem_rmask)
            a_mem_wmask(mem_wmask)
            a_mem_rdata(mem_rdata)
            a_mem_wdata(mem_wdata)
            a_trap(trap)
            a_intr(intr)
        else:
            values = (order, insn, pc_rdata, pc_wdata, rs1_addr, rs2_addr,
                      rs1_rdata, rs2_rdata, rd_addr, rd_wdata, mem_addr,
                      mem_rmask, mem_wmask, mem_rdata, mem_wdata, trap,
                      intr)
            slot = self._ring_appended % self.capacity
            for column, value in zip(self._columns, values):
                column[slot] = value
            self._ring_appended += 1

    @property
    def total_appended(self) -> int:
        """Every retirement ever recorded (a ring's overwritten rows too)."""
        if self.capacity is None:
            return len(self._columns[0])
        return self._ring_appended

    def appenders(self) -> tuple:
        """The pre-bound ``list.append`` of every column, in ``FIELDS``
        order, of an unbounded trace.  A producer that appends one value
        to each of them records one row."""
        if self._appenders is None:
            raise ValueError("a ring trace has no column appenders")
        return self._appenders

    def extend(self, other: "RvfiTrace", stop: int | None = None) -> None:
        """Append ``other``'s retained rows (the first ``stop`` of them
        when given) in retirement order — a column-wise copy when both
        traces are unbounded."""
        count = len(other) if stop is None else min(stop, len(other))
        if self.capacity is None and other.capacity is None:
            for column, source in zip(self._columns, other._columns):
                column.extend(islice(source, count))
        else:
            for row in islice(other.rows(), count):
                self.append_row(*row)

    def column(self, field: str) -> list[int]:
        """The raw column for ``field`` (ring mode: physical slot order)."""
        return self._columns[self.FIELDS.index(field)]

    def _slot(self, index: int) -> int:
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError("trace index out of range")
        if self.capacity is None or self._ring_appended <= self.capacity:
            return index
        return (self._ring_appended + index) % self.capacity

    def row(self, index: int) -> tuple[int, ...]:
        """All 17 fields of one retirement as a tuple (``FIELDS`` order)."""
        slot = self._slot(index)
        return tuple(column[slot] for column in self._columns)

    def rows(self) -> Iterator[tuple[int, ...]]:
        """Every retained retirement as a ``FIELDS``-order tuple, oldest
        first (a wrapped ring starts at its oldest physical slot)."""
        columns = self._columns
        if self.capacity is None:
            return zip(*columns)
        length = len(self)
        start = self._slot(0) if length else 0
        head = zip(*(islice(column, start, start + length)
                     for column in columns))
        if start + length <= self.capacity:
            return head
        wrapped = start + length - self.capacity
        return chain(head, zip(*(islice(column, wrapped)
                                 for column in columns)))

    def peek(self, index: int, field: str) -> int:
        """Read one field of one retirement without materializing it."""
        return self.column(field)[self._slot(index)]

    def poke(self, index: int, field: str, value: int) -> None:
        """Overwrite one recorded field in place (fault-injection hook)."""
        self.column(field)[self._slot(index)] = value

    def __len__(self) -> int:
        if self.capacity is None:
            return len(self._columns[0])
        return min(self._ring_appended, self.capacity)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [RvfiRecord(*self.row(i))
                    for i in range(*index.indices(len(self)))]
        return RvfiRecord(*self.row(index))

    def __iter__(self) -> Iterator[RvfiRecord]:
        return starmap(RvfiRecord, self.rows())


def load_read_fields(addr: int, word: int, width: int,
                     signed: bool) -> tuple[int, int, int]:
    """RVFI ``(mem_addr, mem_rmask, mem_rdata)`` for a load, repo convention.

    ``word`` is the aligned 32-bit memory word covering the access at byte
    address ``addr``; the returned ``mem_rdata`` is the ``width``-byte lane
    extended to 32 bits (sign-extended when ``signed``), matching what the
    golden ISS records and what lands in ``rd``.
    """
    offset = addr & 0x3
    value = (word >> (8 * offset)) & ((1 << (8 * width)) - 1)
    if signed:
        value = to_u32(sign_extend(value, 8 * width))
    return to_u32(addr), (1 << width) - 1, value
