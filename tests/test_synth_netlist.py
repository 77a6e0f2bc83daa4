"""Netlist construction invariants.

Timing, simulation and mapping walk ``netlist.gates`` in node-id order and
trust it to be a topological order of the combinational logic.  These
tests check that invariant on every registered workload's core, check the
id-order timing walk against the depth-first order it replaced, and
differentially test the folding constructors against plain Python
booleans.
"""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.flow import RisspFlow
from repro.synth import (
    DFF_SETUP_UNITS, FLEXIC_GEN3, Gate, GateType, NetSim, Netlist,
    critical_path_units,
)
from repro.workloads import WORKLOADS

_SOURCES = (GateType.CONST0, GateType.CONST1, GateType.INPUT, GateType.DFF)


def _dfs_topo_gates(netlist: Netlist) -> list[int]:
    """Topological order by depth-first search from outputs and DFFs.

    The order timing and netlist simulation derived before they walked
    node ids; kept here as the oracle for the id-order walk.
    """
    order: list[int] = []
    state: dict[int, int] = {}
    dff_nodes = [n for n, g in netlist.gates.items()
                 if g.kind is GateType.DFF]
    dff_fanin = [netlist.gates[n].inputs[0] for n in dff_nodes]
    for root in list(netlist.outputs.values()) + dff_nodes + dff_fanin:
        stack = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                state[node] = 2
                order.append(node)
                continue
            if state.get(node, 0):
                continue
            state[node] = 1
            gate = netlist.gates[node]
            stack.append((node, True))
            if gate.kind in _SOURCES:
                continue
            for dep in gate.inputs:
                if state.get(dep, 0) == 0:
                    stack.append((dep, False))
    return order


def _dfs_critical_path(netlist: Netlist, lib) -> float:
    """Longest-path arrival over the depth-first order (the reference)."""
    arrival: dict[int, float] = {}
    worst = 0.0
    for node in _dfs_topo_gates(netlist):
        gate = netlist.gates[node]
        if gate.kind in (GateType.CONST0, GateType.CONST1, GateType.INPUT):
            arrival[node] = 0.0
            continue
        if gate.kind is GateType.DFF:
            arrival[node] = lib.cell(GateType.DFF).delay_units
            continue
        here = max((arrival.get(dep, 0.0) for dep in gate.inputs),
                   default=0.0) + lib.cell(gate.kind).delay_units
        arrival[node] = here
        worst = max(worst, here)
    for gate in netlist.gates.values():
        if gate.kind is GateType.DFF:
            worst = max(worst,
                        arrival.get(gate.inputs[0], 0.0) + DFF_SETUP_UNITS)
    return worst


@pytest.fixture(scope="module")
def lattice():
    """Synthesized netlist of every registered workload's core + rv32e."""
    flow = RisspFlow()
    results = [flow.generate(name) for name in WORKLOADS]
    results.append(flow.full_isa_baseline())
    return {result.name: result.synth for result in results}


def test_node_ids_are_a_topological_order(lattice):
    assert len(lattice) == len(WORKLOADS) + 1
    late_dff_edges = 0
    for name, synth in lattice.items():
        gates = synth.design.netlist.gates
        assert list(gates) == sorted(gates), name
        for node, gate in gates.items():
            if gate.kind is GateType.DFF:
                late_dff_edges += gate.inputs[0] > node
                continue
            assert all(dep < node for dep in gate.inputs), (name, node, gate)
    # The one exempt edge is real: register next-state logic is built
    # after the flops it reads.
    assert late_dff_edges > 0


def test_critical_path_matches_dfs_reference(lattice):
    for name, synth in lattice.items():
        netlist = synth.design.netlist
        units = critical_path_units(netlist, FLEXIC_GEN3)
        assert units == _dfs_critical_path(netlist, FLEXIC_GEN3), name
        assert units == synth.timing.critical_path_units, name


def test_timing_rejects_a_forward_reference():
    net = Netlist()
    a = net.add_input("a")
    gate = net.g_not(a)
    later = net.add_input("b")
    net.gates[gate] = Gate(GateType.AND2, (a, later))  # reads a later node
    net.set_output("o", gate)
    with pytest.raises(ValueError, match="id order"):
        critical_path_units(net, FLEXIC_GEN3)


# ------------------------------------------------- constructor differential

_ARITY = {"not": 1, "and": 2, "or": 2, "xor": 2, "mux": 3}


@st.composite
def _programs(draw):
    """``(inputs, steps)``: each step applies a ``g_*`` constructor to
    earlier values, indexed as ``[zero, one, *inputs, *step results]``.
    Operands lean towards the constants, so every folding rule fires.
    Some steps repeat an earlier step with its operands permuted: the same
    gate again for AND/OR/XOR, a different one that structural hashing
    must keep apart for MUX."""
    inputs = draw(st.integers(3, 4))
    steps = []
    for index in range(draw(st.integers(1, 16))):
        if steps and draw(st.booleans()):
            op, args = draw(st.sampled_from(steps))
            steps.append((op, tuple(draw(st.permutations(args)))))
            continue
        pool = 2 + inputs + index
        operand = st.one_of(st.integers(0, 1), st.integers(0, pool - 1),
                            st.integers(max(0, pool - 3), pool - 1))
        op = draw(st.sampled_from(sorted(_ARITY)))
        steps.append((op, tuple(draw(operand) for _ in range(_ARITY[op]))))
    return inputs, steps


def _build(net: Netlist, inputs: list[int], steps, swap: bool = False):
    """Replay ``steps`` through the constructors; ``swap`` reverses the
    operands of the commutative gates."""
    nodes = [net.zero, net.one, *inputs]
    for op, args in steps:
        vals = [nodes[i] for i in args]
        if swap and op in ("and", "or", "xor"):
            vals.reverse()
        nodes.append(getattr(net, f"g_{op}")(*vals))
    return nodes[2 + len(inputs):]


def _reference(bits: tuple[int, ...], steps) -> list[bool]:
    values = [False, True, *(bool(b) for b in bits)]
    for op, args in steps:
        v = [values[i] for i in args]
        if op == "not":
            out = not v[0]
        elif op == "and":
            out = v[0] and v[1]
        elif op == "or":
            out = v[0] or v[1]
        elif op == "xor":
            out = v[0] != v[1]
        else:
            out = v[1] if v[0] else v[2]
        values.append(out)
    return values[2 + len(bits):]


@settings(max_examples=300, deadline=None)
@given(program=_programs())
# Three muxes over the same fanins: one structural-hash key each.
@example(program=(3, [("mux", (2, 3, 4)), ("mux", (2, 4, 3)),
                      ("mux", (3, 2, 4))]))
def test_constructors_match_python_booleans(program):
    width, steps = program
    net = Netlist()
    inputs = [net.add_input(f"x{i}") for i in range(width)]
    results = _build(net, inputs, steps)
    for index, node in enumerate(results):
        net.set_output(f"r{index}", node)
    sim = NetSim(net)
    for bits in itertools.product((0, 1), repeat=width):
        got = sim.eval_comb({f"x{i}": b for i, b in enumerate(bits)})
        want = _reference(bits, steps)
        assert [got[f"r{i}"] for i in range(len(results))] \
            == [int(w) for w in want], bits
    # Rebuilding the same expressions, commutative operands swapped or
    # not, returns the very same nodes and adds no gate.
    size = len(net.gates)
    assert _build(net, inputs, steps) == results
    assert _build(net, inputs, steps, swap=True) == results
    assert len(net.gates) == size
