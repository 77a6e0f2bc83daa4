"""Gate-level netlist with constructive optimization.

The netlist is an AIG-like DAG over a small standard-cell alphabet (NOT,
AND2, OR2, XOR2, MUX2, DFF plus constants).  Two of the paper's
"redundancy removal by synthesis tools" mechanisms are implemented right in
the constructor API:

  * **constant propagation** — gates with constant inputs fold away, which
    is how the unused arms of the ModularEX switch disappear, and
  * **structural hashing** — identical gates over identical inputs merge,
    which is how common datapath logic (the ``pc+4`` incrementer, the
    effective-address adder shared by loads/stores/jalr, branch comparator
    chains) is shared across instruction hardware blocks.

A third pass, dead-gate elimination, runs after construction
(:func:`sweep_dead`).

**Node-id order is a topological order.**  Every node id is assigned after
its inputs exist, and the only edge added later is a DFF's data input
(:meth:`Netlist.connect_dff`) — and a DFF output is a timing and
simulation source.  ``netlist.gates`` is kept in id order (its insertion
order; sweeping and mutating gates in place preserve it), so walking it
front to back visits every combinational gate after all of its inputs.
Timing, simulation and mapping rely on this instead of sorting.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class GateType(Enum):
    CONST0 = "const0"
    CONST1 = "const1"
    NOT = "not"
    AND2 = "and2"
    OR2 = "or2"
    XOR2 = "xor2"
    MUX2 = "mux2"   # inputs: (sel, a, b) -> sel ? a : b
    DFF = "dff"     # input: (d,); state element
    INPUT = "input"

    # Enum's default hash is a Python-level method over the member name.
    # Members are singletons compared by identity, so identity hashing is
    # equivalent and keeps per-kind table lookups at C speed.
    __hash__ = object.__hash__


#: The kinds that become cells (everything but constants and inputs).
_CELL_KINDS = (GateType.NOT, GateType.AND2, GateType.OR2, GateType.XOR2,
              GateType.MUX2, GateType.DFF)

# Structural-hash opcodes: strash keys are flat ``(opcode, *inputs)`` ints.
_NOT, _AND2, _OR2, _XOR2, _MUX2 = range(5)


class Gate(NamedTuple):
    kind: GateType
    inputs: tuple[int, ...]
    name: str = ""   # populated for INPUT and DFF nodes


def kind_counts(kinds: list[GateType]) -> dict[GateType, int]:
    """Population of each cell kind in ``kinds``, in first-seen order."""
    present = sorted((kind for kind in _CELL_KINDS if kind in kinds),
                     key=kinds.index)
    return {kind: kinds.count(kind) for kind in present}


class Netlist:
    """Mutable gate network under construction; optimizes as it builds."""

    def __init__(self):
        self.gates: dict[int, Gate] = {}
        self.outputs: dict[str, int] = {}
        self._strash: dict[tuple[int, ...], int] = {}
        self._next_id = 0
        self.zero = self._raw(Gate(GateType.CONST0, ()))
        self.one = self._raw(Gate(GateType.CONST1, ()))
        self.dff_init: dict[int, int] = {}

    # ------------------------------------------------------------- plumbing

    def _raw(self, gate: Gate) -> int:
        node = self._next_id
        self._next_id += 1
        self.gates[node] = gate
        return node

    def add_input(self, name: str) -> int:
        return self._raw(Gate(GateType.INPUT, (), name))

    def add_dff(self, name: str, init: int = 0) -> int:
        node = self._raw(Gate(GateType.DFF, (self.zero,), name))
        self.dff_init[node] = init
        return node

    def connect_dff(self, dff: int, d: int) -> None:
        gate = self.gates[dff]
        if gate.kind is not GateType.DFF:
            raise ValueError(f"node {dff} is not a DFF")
        self.gates[dff] = Gate(GateType.DFF, (d,), gate.name)

    def set_output(self, name: str, node: int) -> None:
        self.outputs[name] = node

    # ----------------------------------------------------- logic constructors
    #
    # The constants are the ``zero``/``one`` nodes made in ``__init__``, so
    # folding tests node identity rather than looking up gate kinds.

    def g_not(self, a: int) -> int:
        if a == self.zero:
            return self.one
        if a == self.one:
            return self.zero
        gate = self.gates[a]
        if gate.kind is GateType.NOT:   # double negation
            return gate.inputs[0]
        return self._hashed(_NOT, GateType.NOT, a)

    def g_and(self, a: int, b: int) -> int:
        if a == b:
            return a
        zero, one = self.zero, self.one
        if a == zero or b == zero:
            return zero
        if a == one:
            return b
        if b == one:
            return a
        if self._complementary(a, b):
            return zero
        if b < a:
            a, b = b, a
        return self._hashed(_AND2, GateType.AND2, a, b)

    def g_or(self, a: int, b: int) -> int:
        if a == b:
            return a
        zero, one = self.zero, self.one
        if a == one or b == one:
            return one
        if a == zero:
            return b
        if b == zero:
            return a
        if self._complementary(a, b):
            return one
        if b < a:
            a, b = b, a
        return self._hashed(_OR2, GateType.OR2, a, b)

    def g_xor(self, a: int, b: int) -> int:
        if a == b:
            return self.zero
        zero, one = self.zero, self.one
        if a == zero:
            return b
        if a == one:
            return self.g_not(b)
        if b == zero:
            return a
        if b == one:
            return self.g_not(a)
        if self._complementary(a, b):
            return one
        if b < a:
            a, b = b, a
        return self._hashed(_XOR2, GateType.XOR2, a, b)

    def g_mux(self, sel: int, a: int, b: int) -> int:
        """``sel ? a : b``."""
        if a == b:
            return a
        zero, one = self.zero, self.one
        if sel == one:
            return a
        if sel == zero:
            return b
        if a == one:
            return sel if b == zero else self.g_or(sel, b)
        if a == zero:
            return (self.g_not(sel) if b == one
                    else self.g_and(self.g_not(sel), b))
        if b == one:
            return self.g_or(self.g_not(sel), a)
        if b == zero:
            return self.g_and(sel, a)
        return self._hashed(_MUX2, GateType.MUX2, sel, a, b)

    def _complementary(self, a: int, b: int) -> bool:
        ga, gb = self.gates[a], self.gates[b]
        return ((ga.kind is GateType.NOT and ga.inputs[0] == b)
                or (gb.kind is GateType.NOT and gb.inputs[0] == a))

    def _hashed(self, opcode: int, kind: GateType, *inputs: int) -> int:
        key = (opcode, *inputs)
        node = self._strash.get(key)
        if node is None:
            node = self._raw(Gate(kind, inputs))
            self._strash[key] = node
        return node

    # --------------------------------------------------------------- queries

    def counts(self) -> dict[GateType, int]:
        """Gate population by type (excluding constants and inputs)."""
        return kind_counts([gate.kind for gate in self.gates.values()])

    def num_dffs(self) -> int:
        return sum(1 for g in self.gates.values()
                   if g.kind is GateType.DFF)


def sweep_dead(netlist: Netlist) -> Netlist:
    """Dead-gate elimination: keep only logic reachable from the outputs.

    One DFS from the primary outputs; a live DFF's data input is an
    ordinary fanin edge, so the state cones that feed live logic are
    pulled in by the same walk.  The constants always stay.  Prunes
    ``netlist.gates`` in place (id order is kept) and returns the netlist —
    the unused-instruction logic the RISSP philosophy removes shows up here
    as a concrete gate-count drop.
    """
    gates = netlist.gates
    live = {netlist.zero, netlist.one}
    stack = list(netlist.outputs.values())
    while stack:
        node = stack.pop()
        if node not in live:
            live.add(node)
            stack.extend(gates[node].inputs)
    netlist.gates = {node: gate for node, gate in gates.items()
                     if node in live}
    netlist.dff_init = {node: init for node, init in netlist.dff_init.items()
                        if node in live}
    return netlist
