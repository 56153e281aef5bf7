"""Circuit substrate: devices, functional blocks, netlists, constraints.

Synthetic industrial-equivalent benchmark circuits live in
:mod:`repro.circuits.library`; random circuits for R-GCN pre-training in
:mod:`repro.circuits.generators`.
"""

from .blocks import (
    MATCHED_STRUCTURES,
    NUM_STRUCTURES,
    FunctionalBlock,
    StructureType,
    structure_one_hot,
)
from .constraints import (
    Constraint,
    ConstraintKind,
    align_h,
    align_v,
    sym_pair_h,
    sym_pair_v,
)
from .devices import (
    Device,
    DeviceType,
    capacitor,
    nmos,
    pmos,
    resistor,
)
from .generators import random_circuit, sample_constraints
from .library import (
    TABLE1_SEEN,
    TABLE1_UNSEEN,
    TABLE2_SET,
    TRAINING_SET,
    available_circuits,
    get_circuit,
)
from .netlist import SUPPLY_NETS, Circuit, Net

__all__ = [
    "Circuit",
    "Constraint",
    "ConstraintKind",
    "Device",
    "DeviceType",
    "FunctionalBlock",
    "MATCHED_STRUCTURES",
    "NUM_STRUCTURES",
    "Net",
    "SUPPLY_NETS",
    "StructureType",
    "TABLE1_SEEN",
    "TABLE1_UNSEEN",
    "TABLE2_SET",
    "TRAINING_SET",
    "align_h",
    "align_v",
    "available_circuits",
    "capacitor",
    "get_circuit",
    "nmos",
    "pmos",
    "random_circuit",
    "resistor",
    "sample_constraints",
    "structure_one_hot",
    "sym_pair_h",
    "sym_pair_v",
]
