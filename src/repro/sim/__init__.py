"""Performance simulator for training-step timing on modeled hardware.

A stream-based discrete-event engine (:mod:`repro.sim.events`) executes task
graphs where each task occupies one stream (compute, GPU-GPU collective,
CPU<->GPU copy, NVMe I/O, CPU compute) for a modeled duration; dependencies
express the dataflow, streams serialize like CUDA streams, and overlap falls
out of the graph structure.  :mod:`repro.sim.step_model` builds the graph for
one ZeRO-Infinity (or baseline) training step and reports step time and
achieved TFLOPs/GPU — the quantity Figs. 5-6 plot.
"""

from repro.sim.events import Task, TaskGraph, SimulationResult
from repro.sim.step_model import (
    SimPolicy,
    SimWorkload,
    StepBreakdown,
    StepSimulator,
    policy_for_strategy,
    policy_from_config,
)
from repro.sim.timeline import render_gantt

__all__ = [
    "Task",
    "TaskGraph",
    "SimulationResult",
    "SimPolicy",
    "SimWorkload",
    "StepBreakdown",
    "StepSimulator",
    "policy_for_strategy",
    "policy_from_config",
    "render_gantt",
]
