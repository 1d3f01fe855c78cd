"""Runtime exit selection and incremental inference (paper Section IV)."""

from repro.runtime.state import RuntimeState, RuntimeStateBatch
from repro.runtime.qlearning import QTable, discretize
from repro.runtime.batched import batch_controllers
from repro.runtime.policies import (
    ExitPolicy,
    GreedyEnergyPolicy,
    FixedExitPolicy,
    OraclePolicy,
    StaticLUTPolicy,
)
from repro.runtime.incremental import IncrementalDecider, NeverContinue
from repro.runtime.controller import (
    CONTROLLER_KINDS,
    CONTROLLER_PRESETS,
    Controller,
    QLearningController,
    StaticController,
    controller_preset,
    make_controller,
    register_controller_preset,
)

__all__ = [
    "RuntimeState",
    "RuntimeStateBatch",
    "QTable",
    "discretize",
    "batch_controllers",
    "ExitPolicy",
    "GreedyEnergyPolicy",
    "FixedExitPolicy",
    "OraclePolicy",
    "StaticLUTPolicy",
    "IncrementalDecider",
    "NeverContinue",
    "CONTROLLER_KINDS",
    "CONTROLLER_PRESETS",
    "Controller",
    "QLearningController",
    "StaticController",
    "controller_preset",
    "make_controller",
    "register_controller_preset",
]
