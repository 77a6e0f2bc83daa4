"""Post-synthesis technology-mapping statistics.

Commercial synthesis does not leave a design as 2-input primitives: AND-OR
cones (exactly what the ModularEX one-hot switch produces) map onto complex
cells (AO22/AO21), and inverted gates fold into NAND/NOR.  Simulating and
mutating the primitive netlist is simpler and equivalent, so the functional
netlist stays primitive — but *area and energy* are computed from a virtual
mapping that mirrors what the EDA tool reports.

Rules (classic standard-cell identities, applied over single-fanout fanins):

  * ``OR2(AND2, AND2)``     -> AO22  (2.5 GE replaces 3.99 GE)
  * ``OR2(AND2, x)``        -> AO21  (1.8 GE replaces 2.66 GE)
  * ``NOT(AND2)``           -> NAND2 (1.0 GE replaces 2.0 GE)
  * ``NOT(OR2)``            -> NOR2  (1.0 GE replaces 2.0 GE)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .netlist import GateType, Netlist, kind_counts
from .techlib import TechLib

_AO22_AREA = 2.5
_AO21_AREA = 1.8
_NAND2_AREA = 1.0
_NOR2_AREA = 1.0


@dataclass
class MappedStats:
    """Virtual post-mapping cell statistics (areas in raw NAND2-eq GE)."""

    comb_area_ge: float = 0.0
    dff_count: int = 0
    cell_counts: dict[str, int] = field(default_factory=dict)

    def _bump(self, name: str, count: int = 1) -> None:
        self.cell_counts[name] = self.cell_counts.get(name, 0) + count


def fanout_counts(netlist: Netlist) -> Counter[int]:
    """Fanout per node, counting primary outputs and DFF data pins."""
    fanout = Counter(chain.from_iterable(
        gate.inputs for gate in netlist.gates.values()))
    fanout.update(netlist.outputs.values())
    return fanout


def mapped_stats(netlist: Netlist, lib: TechLib) -> MappedStats:
    """Compute virtually mapped cell counts and combinational area."""
    stats = MappedStats()
    fanout = fanout_counts(netlist)
    absorbed: set[int] = set()
    gates = netlist.gates

    def is_abs_candidate(node: int, kind: GateType) -> bool:
        gate = gates.get(node)
        return (gate is not None and gate.kind is kind
                and fanout[node] == 1 and node not in absorbed)

    # Walk ORs first so AO absorption wins over NAND/NOR folding.
    for node, gate in gates.items():
        if gate.kind is not GateType.OR2:
            continue
        a, b = gate.inputs
        a_and = is_abs_candidate(a, GateType.AND2)
        b_and = is_abs_candidate(b, GateType.AND2)
        if a_and and b_and:
            absorbed.update((node, a, b))
            stats.comb_area_ge += _AO22_AREA
            stats._bump("AO22")
        elif a_and or b_and:
            absorbed.update((node, a if a_and else b))
            stats.comb_area_ge += _AO21_AREA
            stats._bump("AO21")

    for node, gate in gates.items():
        if gate.kind is not GateType.NOT or node in absorbed:
            continue
        inner = gate.inputs[0]
        if is_abs_candidate(inner, GateType.AND2):
            absorbed.update((node, inner))
            stats.comb_area_ge += _NAND2_AREA
            stats._bump("NAND2")
        elif is_abs_candidate(inner, GateType.OR2):
            absorbed.update((node, inner))
            stats.comb_area_ge += _NOR2_AREA
            stats._bump("NOR2")

    # The remaining primitives map one-to-one (constants and inputs have no
    # fanin and no cell).  Area accumulates gate by gate in id order, so the
    # float sum is reproducible bit for bit.
    area = {kind: cell.area_ge for kind, cell in lib.cells.items()}
    dff = GateType.DFF
    kept = [gate.kind for node, gate in gates.items()
            if node not in absorbed and gate.inputs and gate.kind is not dff]
    for kind in kept:
        stats.comb_area_ge += area[kind]
    for kind, count in kind_counts(kept).items():
        stats._bump(kind.value.upper(), count)
    stats.dff_count = sum(1 for gate in gates.values() if gate.kind is dff)
    return stats
