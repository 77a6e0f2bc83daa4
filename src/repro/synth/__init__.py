"""Synthesis flow: lowering, optimization, FlexIC techlib, timing, power."""

from .lower import LoweredDesign, lower_module
from .netlist import Gate, GateType, Netlist, sweep_dead
from .netsim import NetSim, eval_words
from .optimize import MappedStats, fanout_counts, mapped_stats
from .power import FF_ENERGY_FACTOR, PowerBreakdown, power_at, switching_units
from .report import AreaStats, SynthReport, area_stats, synthesize
from .serv_model import SERV_CPI, synthesize_serv
from .techlib import DFF_SETUP_UNITS, FLEXIC_GEN3, CellInfo, TechLib, design_jitter
from .timing import TimingReport, analyze_timing, critical_path_units

__all__ = [
    "AreaStats", "CellInfo", "DFF_SETUP_UNITS", "FF_ENERGY_FACTOR",
    "FLEXIC_GEN3", "Gate", "GateType", "LoweredDesign", "MappedStats",
    "NetSim", "Netlist", "PowerBreakdown", "SERV_CPI", "SynthReport",
    "TechLib", "TimingReport", "analyze_timing", "area_stats",
    "critical_path_units", "design_jitter", "eval_words", "fanout_counts",
    "lower_module", "mapped_stats", "power_at", "sweep_dead", "switching_units",
    "synthesize", "synthesize_serv",
]
