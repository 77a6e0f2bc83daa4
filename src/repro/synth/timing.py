"""Static timing analysis over the gate netlist.

Computes the longest register-to-register / input-to-output combinational
path, converts it to a clock period against the technology library, and
replays the paper's frequency search: sweep the target clock from 100 kHz in
25 kHz steps up to 3 MHz and report the highest frequency with positive
slack (§4.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .netlist import GateType, Netlist
from .techlib import DFF_SETUP_UNITS, TechLib, design_jitter

SWEEP_START_KHZ = 100
SWEEP_STEP_KHZ = 25
SWEEP_STOP_KHZ = 3000


@dataclass(frozen=True)
class TimingReport:
    critical_path_units: float   # technology-independent depth
    critical_path_ns: float      # with library delays + jitter
    period_ns: float             # + clock overhead + setup
    fmax_khz_analog: float       # 1/period
    fmax_khz: int                # snapped to the 25 kHz sweep grid
    sweep_khz: tuple[int, ...]   # all positive-slack sweep points


def critical_path_units(netlist: Netlist, lib: TechLib) -> float:
    """Longest arrival time in delay units (DFF clk->q counted at source).

    Walks ``netlist.gates`` in node-id order, which is a topological order
    of the combinational logic: every node id is assigned after its inputs
    exist, and the only edge added later, a DFF's data input, ends at a
    timing source.  A gate that reads a node with no arrival yet breaks
    that invariant and raises ``ValueError`` instead of timing a wrong path.
    """
    delay = {kind: cell.delay_units for kind, cell in lib.cells.items()}
    dff = GateType.DFF
    clk_to_q = delay[dff]
    arrival: dict[int, float] = {}
    arrival_of = arrival.__getitem__
    worst = 0.0
    for node, (kind, inputs, _) in netlist.gates.items():
        if kind is dff:
            arrival[node] = clk_to_q
            continue
        if not inputs:   # constants and primary inputs
            arrival[node] = 0.0
            continue
        try:
            latest = max(map(arrival_of, inputs))
        except KeyError as exc:
            raise ValueError(f"node {node} reads node {exc.args[0]}, which "
                             f"is not defined before it in id order") from None
        here = latest + delay[kind]
        arrival[node] = here
        if here > worst:
            worst = here
    # Paths ending in a DFF pay setup.
    for kind, inputs, _ in netlist.gates.values():
        if kind is dff:
            end = arrival[inputs[0]] + DFF_SETUP_UNITS
            if end > worst:
                worst = end
    return worst


def analyze_timing(netlist: Netlist, lib: TechLib,
                   seed: str = "") -> TimingReport:
    """Full timing report with the paper's 25 kHz frequency sweep."""
    units = critical_path_units(netlist, lib)
    jitter = design_jitter(lib, seed) if seed else 1.0
    path_ns = units * lib.delay_ns_per_unit * jitter
    period_ns = path_ns + lib.clock_overhead_ns
    fmax_khz_analog = 1e6 / period_ns  # 1/ns = GHz; x1e6 = kHz
    sweep = tuple(
        khz for khz in range(SWEEP_START_KHZ, SWEEP_STOP_KHZ + 1,
                             SWEEP_STEP_KHZ)
        if khz <= fmax_khz_analog)
    fmax = sweep[-1] if sweep else 0
    return TimingReport(critical_path_units=units,
                        critical_path_ns=path_ns,
                        period_ns=period_ns,
                        fmax_khz_analog=fmax_khz_analog,
                        fmax_khz=fmax,
                        sweep_khz=sweep)
