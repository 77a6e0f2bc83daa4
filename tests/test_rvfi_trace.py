"""Columnar RVFI trace access and the input-independence of check_trace.

:class:`repro.sim.tracing.RvfiTrace` is read without materializing
records: :meth:`~repro.sim.tracing.RvfiTrace.rows` yields field tuples in
retirement order (also across a wrapped ring) and
:meth:`~repro.sim.tracing.RvfiTrace.extend` copies column by column.
:func:`repro.verify.rvfi.check_trace` runs one loop over such tuples, so
the same retirements must produce the same report — every error string,
in order, including the ``max_errors`` cut-off — whether they arrive as an
unbounded trace, as a list of :class:`RvfiRecord` or as a ring that has
wrapped.
"""

from __future__ import annotations

import pytest

from repro.isa import assemble, decode
from repro.sim.golden import GoldenSim, abi_initial_regs
from repro.sim.tracing import RvfiRecord, RvfiTrace
from repro.soc import SocSpec
from repro.verify.rvfi import check_trace

#: Timer interrupts, an ecall trap per iteration, CSR reads in the
#: handler and sub-word stores/loads in the main loop: every column
#: check_trace reasons about carries real traffic.
FIRMWARE = """
.equ PWR,      0x40000
.equ MTIME,    0x40100
.equ MTIMECMP, 0x40108
.text
main:
    la t0, handler
    csrw mtvec, t0
    li t0, MTIMECMP
    li t1, 100
    sw t1, 0(t0)
    sw x0, 4(t0)
    li t0, 128
    csrw mie, t0
    csrsi mstatus, 8
    li s0, 0
    addi sp, sp, -16
loop:
    sh s0, 6(sp)
    lh a1, 6(sp)
    add a2, a2, a1
    ecall
    wfi
    li t1, 4
    blt s0, t1, loop
    li t0, PWR
    sw a2, 0(t0)
hang:
    j hang
handler:
    csrr t2, mcause
    bgez t2, exception
    addi s0, s0, 1
    li t0, MTIME
    lw t1, 0(t0)
    addi t1, t1, 100
    li t0, MTIMECMP
    sw t1, 0(t0)
    mret
exception:
    csrr t2, mepc
    addi t2, t2, 4
    csrw mepc, t2
    mret
"""


@pytest.fixture(scope="module")
def firmware_trace():
    result = GoldenSim(assemble(FIRMWARE), soc=SocSpec(), trace=True).run()
    assert result.halted_by == "poweroff"
    return result.trace


def _row_where(trace, predicate, after=0):
    """Index of the first row from ``after`` on whose (mnemonic, row)
    satisfies ``predicate``."""
    for index, row in enumerate(trace.rows()):
        if index < after:
            continue
        fields = dict(zip(RvfiTrace.FIELDS, row))
        mnemonic = None if fields["trap"] else decode(fields["insn"]).mnemonic
        if predicate(mnemonic, fields):
            return index
    raise AssertionError("no matching row")


def _variant(trace, kind):
    """A copy of ``trace`` with one kind of corruption poked in."""
    copy = RvfiTrace()
    copy.extend(trace)
    if kind == "pc":
        copy.poke(7, "pc_rdata", copy.peek(7, "pc_rdata") ^ 0x40)
    elif kind == "rd":
        index = _row_where(copy, lambda m, f: m == "add" and f["rd_addr"])
        copy.poke(index, "rd_wdata", copy.peek(index, "rd_wdata") + 1)
    elif kind in ("rs1", "rs2"):
        # The second pass through the loop's add: by then the shadow file
        # has seen both of its source registers written.
        first = _row_where(copy, lambda m, f: m == "add")
        index = _row_where(copy, lambda m, f: m == "add", after=first + 1)
        field = f"{kind}_rdata"
        copy.poke(index, field, copy.peek(index, field) ^ 0x100)
    elif kind == "csr":
        # A csrr of mepc after the first ecall trap: the shadow CSR file
        # knows mepc from the trap entry, so the read is checked exactly.
        first_trap = _row_where(copy, lambda m, f: f["trap"])
        index = _row_where(
            copy, lambda m, f: m == "csrrs" and f["rd_addr"]
            and decode(f["insn"]).imm & 0xFFF == 0x341, after=first_trap)
        copy.poke(index, "rd_wdata", copy.peek(index, "rd_wdata") ^ 0x10)
    elif kind == "intr":
        index = _row_where(copy, lambda m, f: f["intr"])
        copy.poke(index, "intr", 5)
    elif kind == "many":
        for index in range(1, len(copy), 3):
            copy.poke(index, "pc_rdata",
                      copy.peek(index, "pc_rdata") ^ 0x40)
    return copy


def _wrapped_ring(trace):
    """A ring trace holding exactly ``trace``'s rows, after wrapping."""
    ring = RvfiTrace(capacity=len(trace))
    for order in range(7):
        ring.append_row(order, 0x13, 0, 4, 0, 0, 0, 0, 0, 0)
    ring.extend(trace)
    assert ring.total_appended > ring.capacity
    return ring


@pytest.mark.parametrize("kind, max_errors, expect", [
    ("clean", 25, None),
    ("pc", 25, "pc_rdata != previous pc_wdata"),
    ("rd", 25, "rd_wdata"),
    ("rs1", 25, "rs1 x12 read"),
    ("rs2", 25, "rs2 x11 read"),
    ("csr", 25, "rd_wdata"),
    ("intr", 25, "intr carries unknown interrupt code 5"),
    ("many", 6, "pc_rdata != previous pc_wdata"),
])
def test_check_trace_report_is_identical_across_inputs(
        firmware_trace, kind, max_errors, expect):
    trace = _variant(firmware_trace, kind)
    ring = _wrapped_ring(trace)
    assert list(ring.rows()) == list(trace.rows())
    reports = [check_trace(source, initial_regs=abi_initial_regs(),
                           max_errors=max_errors)
               for source in (trace, list(trace), ring, list(ring))]
    first = reports[0]
    for report in reports[1:]:
        assert report.records_checked == first.records_checked
        assert report.errors == first.errors
    if expect is None:
        assert first.passed, first.errors
        assert first.records_checked == len(trace)
        return
    assert not first.passed
    assert expect in first.errors[0], first.errors
    if kind == "many":
        # The cut-off stops the walk once max_errors are reached.
        assert len(first.errors) >= max_errors
        assert first.records_checked < len(trace)


def test_rows_follow_retirement_order_in_every_ring_state():
    def row(order):
        return (order, 0x13, 4 * order, 4 * order + 4) + (0,) * 13

    ring = RvfiTrace(capacity=5)
    assert list(ring.rows()) == []
    for order in range(3):
        ring.append_row(*row(order))
    assert list(ring.rows()) == [row(order) for order in range(3)]
    for order in range(3, 12):
        ring.append_row(*row(order))
        want = [row(n) for n in range(max(0, order - 4), order + 1)]
        assert list(ring.rows()) == want
        assert list(ring.rows()) == [ring.row(i) for i in range(len(ring))]
        assert list(ring) == [RvfiRecord(*values) for values in want]


def test_extend_copies_rows_and_honours_stop():
    source = RvfiTrace()
    for order in range(6):
        source.append_row(order, 0x13, 4 * order, 4 * order + 4,
                          0, 0, 0, 0, 0, 0)
    whole = RvfiTrace()
    whole.extend(source)
    assert list(whole.rows()) == list(source.rows())
    assert whole.total_appended == len(whole) == 6
    prefix = RvfiTrace()
    prefix.extend(source, 4)
    prefix.extend(source, 2)
    assert list(prefix.rows()) == \
        list(source.rows())[:4] + list(source.rows())[:2]
    ring = RvfiTrace(capacity=4)
    ring.extend(source)
    assert list(ring.rows()) == list(source.rows())[2:]
    back = RvfiTrace()
    back.extend(ring, 3)
    assert list(back.rows()) == list(source.rows())[2:5]
