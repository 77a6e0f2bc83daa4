"""Gate-level netlist simulation.

Used for synthesis-equivalence checking (word-level RTL evaluation vs the
lowered gates — the paper's synthesis tool performs the same check via
equivalence checking) and as the execution engine for the MCY-analog
mutation coverage measurement.

There is no topological sort: gates are evaluated in node-id order, which
the netlist guarantees is a topological order of the combinational logic
(see :mod:`repro.synth.netlist`).  ``netlist.gates`` is read afresh on every
evaluation, so one :class:`NetSim` sees single-gate mutations swapped in
and out of the netlist in place.
"""

from __future__ import annotations

from .netlist import GateType, Netlist


class NetSim:
    """Evaluate a netlist cycle-by-cycle."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.values: dict[int, int] = {}
        self.dff_state: dict[int, int] = dict(netlist.dff_init)

    def eval_comb(self, inputs: dict[str, int]) -> dict[str, int]:
        """Evaluate with named input bits; returns named output bits."""
        values = self.values
        values.clear()
        for node, (kind, ins, name) in self.netlist.gates.items():
            if kind is GateType.AND2:
                values[node] = values[ins[0]] & values[ins[1]]
            elif kind is GateType.OR2:
                values[node] = values[ins[0]] | values[ins[1]]
            elif kind is GateType.XOR2:
                values[node] = values[ins[0]] ^ values[ins[1]]
            elif kind is GateType.NOT:
                values[node] = 1 - values[ins[0]]
            elif kind is GateType.MUX2:
                sel, a, b = ins
                values[node] = values[a] if values[sel] else values[b]
            elif kind is GateType.INPUT:
                values[node] = inputs.get(name, 0) & 1
            elif kind is GateType.DFF:
                values[node] = self.dff_state.get(node, 0)
            elif kind is GateType.CONST0:
                values[node] = 0
            elif kind is GateType.CONST1:
                values[node] = 1
            else:  # pragma: no cover
                raise ValueError(f"cannot simulate {kind}")
        return {name: values[node]
                for name, node in self.netlist.outputs.items()}

    def tick(self) -> None:
        """Commit DFF next-state (call after :meth:`eval_comb`)."""
        for node, gate in self.netlist.gates.items():
            if gate.kind is GateType.DFF:
                self.dff_state[node] = self.values[gate.inputs[0]]


def eval_words(netlist: Netlist, inputs: dict[str, int],
               widths: dict[str, int]) -> dict[str, int]:
    """Word-level convenience wrapper: pack/unpack ``name[i]`` bit pins."""
    bit_inputs: dict[str, int] = {}
    for name, value in inputs.items():
        for index in range(widths.get(name, 32)):
            bit_inputs[f"{name}[{index}]"] = (value >> index) & 1
    sim = NetSim(netlist)
    out_bits = sim.eval_comb(bit_inputs)
    words: dict[str, int] = {}
    for pin, bit in out_bits.items():
        name, _, rest = pin.partition("[")
        index = int(rest[:-1])
        words[name] = words.get(name, 0) | (bit << index)
    return words
