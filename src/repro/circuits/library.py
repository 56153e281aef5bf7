"""Benchmark circuit library.

The paper evaluates on six proprietary Infineon designs.  We build
synthetic equivalents matching each design's published block count,
functional mix and constraint style:

===========  ======  ==========================  =========
Circuit      Blocks  Role in paper               Our name
===========  ======  ==========================  =========
OTA-1        5       seen (training set)         ``ota1``
OTA-2        8       seen (Fig. 2 circuit)       ``ota2``
Bias-1       9       seen                        ``bias1``
RS-Latch     7       unseen                      ``rs_latch``
Driver       17      unseen                      ``driver``
Bias-2       19      unseen                      ``bias2``
OTA-small    3       training + Table II "OTA"   ``ota_small``
Bias-small   3       training                    ``bias_small``
===========  ======  ==========================  =========

The RL training set (paper Sec. IV-D5) is 3 OTAs and 2 bias circuits with
3/5/8/3/9 blocks: ``ota_small``, ``ota1``, ``ota2``, ``bias_small``,
``bias1``.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .blocks import FunctionalBlock, StructureType
from .constraints import Constraint, align_h, align_v, sym_pair_h, sym_pair_v
from .devices import capacitor, nmos, pmos, resistor
from .netlist import Circuit

S = StructureType


def _block(name: str, structure: S, devices, routing: str = "H") -> FunctionalBlock:
    return FunctionalBlock(name, structure, list(devices), routing_direction=routing)


# ---------------------------------------------------------------------------
# OTA family
# ---------------------------------------------------------------------------

def ota_small() -> Circuit:
    """3-block single-stage OTA: diff pair, mirror load, tail source.

    This is the "OTA" of paper Table II (3 blocks) and the smallest HCL
    training circuit.
    """
    dp = _block("DP", S.DIFFERENTIAL_PAIR, [
        nmos("N1", 24.0, 0.5, stripes=4, D="OUTM", G="INP", S="TAIL", B="VSS"),
        nmos("N2", 24.0, 0.5, stripes=4, D="OUTP", G="INN", S="TAIL", B="VSS"),
    ], routing="H")
    cm = _block("CM", S.SIMPLE_CURRENT_MIRROR, [
        pmos("P1", 32.0, 1.0, stripes=4, D="OUTM", G="OUTM", S="VDD", B="VDD"),
        pmos("P2", 32.0, 1.0, stripes=4, D="OUTP", G="OUTM", S="VDD", B="VDD"),
    ], routing="H")
    tail = _block("TAIL", S.TAIL_CURRENT_SOURCE, [
        nmos("N3", 16.0, 2.0, stripes=2, D="TAIL", G="VBN", S="VSS", B="VSS"),
        nmos("N4", 4.0, 2.0, stripes=1, D="VBN", G="VBN", S="VSS", B="VSS"),
    ], routing="V")
    blocks = [dp, cm, tail]
    return Circuit.from_blocks("OTA-small", blocks, constraints=[align_v(0, 2)])


def ota1() -> Circuit:
    """5-block OTA (paper OTA-1): adds cascode load and compensation."""
    dp = _block("DP", S.DIFFERENTIAL_PAIR, [
        nmos("N1", 28.0, 0.5, stripes=4, D="X1", G="INP", S="TAIL", B="VSS"),
        nmos("N2", 28.0, 0.5, stripes=4, D="X2", G="INN", S="TAIL", B="VSS"),
    ])
    cm = _block("CM", S.SIMPLE_CURRENT_MIRROR, [
        pmos("P1", 36.0, 1.0, stripes=4, D="X1", G="X1", S="VDD", B="VDD"),
        pmos("P2", 36.0, 1.0, stripes=4, D="X2", G="X1", S="VDD", B="VDD"),
    ])
    casc = _block("CASC", S.CASCODE_PAIR, [
        nmos("N5", 20.0, 0.35, stripes=2, D="OUT", G="VCASC", S="X2", B="VSS"),
        nmos("N6", 20.0, 0.35, stripes=2, D="VCASC", G="VCASC", S="X1", B="VSS"),
    ])
    tail = _block("TAIL", S.TAIL_CURRENT_SOURCE, [
        nmos("N3", 18.0, 2.0, stripes=2, D="TAIL", G="VBN", S="VSS", B="VSS"),
        nmos("N4", 4.5, 2.0, stripes=1, D="VBN", G="VBN", S="VSS", B="VSS"),
    ], routing="V")
    comp = _block("CC", S.COMPENSATION_CAP, [
        capacitor("C1", 900.0, P="OUT", N="X2"),
    ], routing="V")
    blocks = [dp, cm, casc, tail, comp]
    constraints = [align_v(0, 3), align_h(1, 2)]
    return Circuit.from_blocks("OTA-1", blocks, constraints=constraints)


def ota2() -> Circuit:
    """8-block OTA matching paper Fig. 2 (DP, CM, cascode, bias chain...)."""
    dp = _block("DP", S.DIFFERENTIAL_PAIR, [
        nmos("N33", 32.0, 0.5, stripes=4, D="A1", G="INP", S="TAIL", B="VSS"),
        nmos("N34", 32.0, 0.5, stripes=4, D="A2", G="INN", S="TAIL", B="VSS"),
    ])
    cm = _block("CM", S.SIMPLE_CURRENT_MIRROR, [
        pmos("P18", 40.0, 1.0, stripes=4, D="A1", G="A1", S="VDD", B="VDD"),
        pmos("P19", 40.0, 1.0, stripes=4, D="A2", G="A1", S="VDD", B="VDD"),
    ])
    casc = _block("CASC", S.CASCODE_PAIR, [
        nmos("N32", 24.0, 0.35, stripes=2, D="OUT", G="VC", S="A2", B="VSS"),
        nmos("N31", 24.0, 0.35, stripes=2, D="VC", G="VC", S="A1", B="VSS"),
    ])
    tail = _block("TAIL", S.TAIL_CURRENT_SOURCE, [
        nmos("N13", 20.0, 2.0, stripes=2, D="TAIL", G="VBN", S="VSS", B="VSS"),
    ], routing="V")
    bias_mirror = _block("BIASM", S.SIMPLE_CURRENT_MIRROR, [
        nmos("N14", 6.0, 2.0, stripes=1, D="VBN", G="VBN", S="VSS", B="VSS"),
        nmos("N16", 6.0, 2.0, stripes=1, D="VC", G="VBN", S="VSS", B="VSS"),
    ], routing="V")
    lvl = _block("LVL", S.LEVEL_SHIFTER, [
        nmos("N21", 10.0, 0.5, stripes=2, D="VDD", G="OUT", S="OUTB", B="VSS"),
        nmos("N15", 8.0, 1.0, stripes=1, D="OUTB", G="VBN", S="VSS", B="VSS"),
    ], routing="V")
    out_stage = _block("OUTS", S.COMMON_SOURCE_STAGE, [
        pmos("P8", 48.0, 0.5, stripes=6, D="OUTB", G="OUT", S="VDD", B="VDD"),
    ])
    comp = _block("CC", S.COMPENSATION_CAP, [
        capacitor("C1", 1200.0, P="OUT", N="A2"),
    ], routing="V")
    blocks = [dp, cm, casc, tail, bias_mirror, lvl, out_stage, comp]
    constraints = [align_v(0, 3), align_h(1, 2), align_v(4, 5)]
    return Circuit.from_blocks("OTA-2", blocks, constraints=constraints)


# ---------------------------------------------------------------------------
# Bias family
# ---------------------------------------------------------------------------

def bias_small() -> Circuit:
    """3-block bias generator used in HCL training."""
    ref = _block("REF", S.BIAS_RESISTOR, [
        resistor("R1", 1.0, 40.0, stripes=4, P="VREF", N="VSS"),
    ], routing="V")
    mirror = _block("MIR", S.SIMPLE_CURRENT_MIRROR, [
        pmos("P1", 20.0, 1.0, stripes=2, D="VREF", G="VREF", S="VDD", B="VDD"),
        pmos("P2", 20.0, 1.0, stripes=2, D="IB1", G="VREF", S="VDD", B="VDD"),
    ])
    load = _block("LOAD", S.SIMPLE_CURRENT_MIRROR, [
        nmos("N1", 12.0, 2.0, stripes=2, D="IB1", G="IB1", S="VSS", B="VSS"),
        nmos("N2", 12.0, 2.0, stripes=2, D="IB2", G="IB1", S="VSS", B="VSS"),
    ])
    blocks = [ref, mirror, load]
    return Circuit.from_blocks("Bias-small", blocks, constraints=[align_h(1, 2)])


def bias1() -> Circuit:
    """9-block constant-gm bias generator (paper Bias-1, Table II "Bias-1")."""
    start = _block("START", S.SINGLE_DEVICE, [
        pmos("P0", 2.0, 4.0, stripes=1, D="VSTART", G="VSS", S="VDD", B="VDD"),
    ], routing="V")
    ref_res = _block("RREF", S.BIAS_RESISTOR, [
        resistor("R1", 1.2, 60.0, stripes=6, P="SRC2", N="VSS"),
    ], routing="V")
    pm1 = _block("PM1", S.SIMPLE_CURRENT_MIRROR, [
        pmos("P1", 24.0, 1.0, stripes=3, D="NB1", G="PB1", S="VDD", B="VDD"),
        pmos("P2", 24.0, 1.0, stripes=3, D="PB1", G="PB1", S="VDD", B="VDD"),
    ])
    pm2 = _block("PM2", S.CASCODE_CURRENT_MIRROR, [
        pmos("P3", 18.0, 0.5, stripes=2, D="NB1C", G="PB2", S="NB1", B="VDD"),
        pmos("P4", 18.0, 0.5, stripes=2, D="PB2", G="PB2", S="PB1", B="VDD"),
    ])
    nm1 = _block("NM1", S.WIDE_SWING_MIRROR, [
        nmos("N1", 16.0, 1.0, stripes=2, D="NB1C", G="NB1C", S="SRC1", B="VSS"),
        nmos("N2", 16.0, 1.0, stripes=2, D="PB2", G="NB1C", S="SRC2", B="VSS"),
    ])
    nm2 = _block("NM2", S.SIMPLE_CURRENT_MIRROR, [
        nmos("N3", 10.0, 2.0, stripes=1, D="SRC1", G="VSTART", S="VSS", B="VSS"),
        nmos("N4", 10.0, 2.0, stripes=1, D="VSTART", G="VSTART", S="VSS", B="VSS"),
    ])
    outm1 = _block("OUT1", S.SIMPLE_CURRENT_MIRROR, [
        pmos("P5", 30.0, 1.0, stripes=3, D="IOUT1", G="PB1", S="VDD", B="VDD"),
        pmos("P6", 15.0, 1.0, stripes=2, D="IOUT2", G="PB1", S="VDD", B="VDD"),
    ])
    outm2 = _block("OUT2", S.SIMPLE_CURRENT_MIRROR, [
        nmos("N5", 20.0, 2.0, stripes=2, D="IOUT1", G="IOUT1", S="VSS", B="VSS"),
        nmos("N6", 20.0, 2.0, stripes=2, D="IOUT3", G="IOUT1", S="VSS", B="VSS"),
    ])
    cap = _block("CFILT", S.CAPACITOR_BANK, [
        capacitor("C1", 800.0, P="PB1", N="VDD"),
        capacitor("C2", 800.0, P="NB1C", N="VSS"),
    ], routing="V")
    blocks = [start, ref_res, pm1, pm2, nm1, nm2, outm1, outm2, cap]
    constraints = [align_h(2, 3), align_h(4, 5), align_v(2, 4)]
    return Circuit.from_blocks("Bias-1", blocks, constraints=constraints)


def bias2() -> Circuit:
    """19-block multi-output bias block (paper Bias-2, largest unseen)."""
    blocks: List[FunctionalBlock] = []
    # Core reference (4 blocks).
    blocks.append(_block("START", S.SINGLE_DEVICE, [
        pmos("P0", 2.0, 4.0, D="VSTART", G="VSS", S="VDD", B="VDD"),
    ], routing="V"))
    blocks.append(_block("RREF", S.BIAS_RESISTOR, [
        resistor("R1", 1.2, 80.0, stripes=8, P="SRC", N="VSS"),
    ], routing="V"))
    blocks.append(_block("PCORE", S.CASCODE_CURRENT_MIRROR, [
        pmos("P1", 28.0, 1.0, stripes=3, D="NBIAS", G="PBIAS", S="VDD", B="VDD"),
        pmos("P2", 28.0, 1.0, stripes=3, D="PBIAS", G="PBIAS", S="VDD", B="VDD"),
    ]))
    blocks.append(_block("NCORE", S.WIDE_SWING_MIRROR, [
        nmos("N1", 20.0, 1.0, stripes=2, D="NBIAS", G="NBIAS", S="VSTART", B="VSS"),
        nmos("N2", 20.0, 1.0, stripes=2, D="PBIAS", G="NBIAS", S="SRC", B="VSS"),
    ]))
    # Eight output mirror branches, alternating P/N (8 blocks).
    for k in range(8):
        net_out = f"IB{k}"
        if k % 2 == 0:
            blocks.append(_block(f"POUT{k}", S.SIMPLE_CURRENT_MIRROR, [
                pmos(f"PO{k}a", 18.0 + 2.0 * k, 1.0, stripes=2, D=net_out, G="PBIAS", S="VDD", B="VDD"),
                pmos(f"PO{k}b", 9.0 + k, 1.0, stripes=1, D=f"IB{k}X", G="PBIAS", S="VDD", B="VDD"),
            ]))
        else:
            blocks.append(_block(f"NOUT{k}", S.SIMPLE_CURRENT_MIRROR, [
                nmos(f"NO{k}a", 14.0 + 2.0 * k, 2.0, stripes=2, D=f"IB{k-1}", G=f"IB{k-1}", S="VSS", B="VSS"),
                nmos(f"NO{k}b", 14.0 + 2.0 * k, 2.0, stripes=2, D=net_out, G=f"IB{k-1}", S="VSS", B="VSS"),
            ]))
    # Cascode boosters (3 blocks).
    blocks.append(_block("CASCP", S.CASCODE_PAIR, [
        pmos("PC1", 16.0, 0.5, stripes=2, D="IB0", G="PCASC", S="IB0X", B="VDD"),
        pmos("PC2", 16.0, 0.5, stripes=2, D="PCASC", G="PCASC", S="IB2X", B="VDD"),
    ]))
    blocks.append(_block("CASCN", S.CASCODE_PAIR, [
        nmos("NC1", 14.0, 0.5, stripes=2, D="IB1", G="NCASC", S="IB3", B="VSS"),
        nmos("NC2", 14.0, 0.5, stripes=2, D="NCASC", G="NCASC", S="IB5", B="VSS"),
    ]))
    blocks.append(_block("LVLS", S.LEVEL_SHIFTER, [
        nmos("NL1", 8.0, 0.5, D="VDD", G="IB7", S="ENOUT", B="VSS"),
        nmos("NL2", 6.0, 1.0, D="ENOUT", G="NBIAS", S="VSS", B="VSS"),
    ], routing="V"))
    # Decoupling and trim (4 blocks).
    blocks.append(_block("CDEC1", S.CAPACITOR_BANK, [
        capacitor("C1", 1000.0, P="PBIAS", N="VDD"),
    ], routing="V"))
    blocks.append(_block("CDEC2", S.CAPACITOR_BANK, [
        capacitor("C2", 1000.0, P="NBIAS", N="VSS"),
    ], routing="V"))
    blocks.append(_block("RTRIM", S.RESISTOR_ARRAY, [
        resistor("R2", 1.0, 30.0, stripes=3, P="SRC", N="TRIM1"),
        resistor("R3", 1.0, 30.0, stripes=3, P="TRIM1", N="VSS"),
    ], routing="V"))
    blocks.append(_block("ESD", S.ESD_CLAMP, [
        nmos("NE1", 60.0, 0.5, stripes=8, D="ENOUT", G="VSS", S="VSS", B="VSS"),
    ]))
    constraints = [align_h(2, 3), align_v(4, 6), align_v(5, 7), sym_pair_v(12, 13)]
    return Circuit.from_blocks("Bias-2", blocks, constraints=constraints)


# ---------------------------------------------------------------------------
# RS latch and driver (unseen circuits)
# ---------------------------------------------------------------------------

def rs_latch() -> Circuit:
    """7-block RS latch / clock synchronizer (paper RS-Latch, unseen)."""
    latch = _block("CORE", S.LATCH_CORE, [
        nmos("N1", 12.0, 0.35, stripes=2, D="Q", G="QB", S="VSS", B="VSS"),
        nmos("N2", 12.0, 0.35, stripes=2, D="QB", G="Q", S="VSS", B="VSS"),
        pmos("P1", 18.0, 0.35, stripes=2, D="Q", G="QB", S="VDD", B="VDD"),
        pmos("P2", 18.0, 0.35, stripes=2, D="QB", G="Q", S="VDD", B="VDD"),
    ])
    set_in = _block("SETIN", S.NOR_GATE, [
        nmos("N3", 8.0, 0.35, D="Q", G="SET", S="VSS", B="VSS"),
        pmos("P3", 12.0, 0.35, D="SETX", G="SET", S="VDD", B="VDD"),
    ])
    rst_in = _block("RSTIN", S.NOR_GATE, [
        nmos("N4", 8.0, 0.35, D="QB", G="RST", S="VSS", B="VSS"),
        pmos("P4", 12.0, 0.35, D="RSTX", G="RST", S="VDD", B="VDD"),
    ])
    buf_q = _block("BUFQ", S.INVERTER, [
        nmos("N5", 10.0, 0.35, D="QOUT", G="Q", S="VSS", B="VSS"),
        pmos("P5", 16.0, 0.35, D="QOUT", G="Q", S="VDD", B="VDD"),
    ])
    buf_qb = _block("BUFQB", S.INVERTER, [
        nmos("N6", 10.0, 0.35, D="QBOUT", G="QB", S="VSS", B="VSS"),
        pmos("P6", 16.0, 0.35, D="QBOUT", G="QB", S="VDD", B="VDD"),
    ])
    tgate = _block("TG", S.TRANSMISSION_GATE, [
        nmos("N7", 6.0, 0.35, D="SET", G="CLK", S="SETX", B="VSS"),
        pmos("P7", 9.0, 0.35, D="RST", G="CLKB", S="RSTX", B="VDD"),
    ])
    clk_inv = _block("CLKINV", S.INVERTER, [
        nmos("N8", 6.0, 0.35, D="CLKB", G="CLK", S="VSS", B="VSS"),
        pmos("P8", 9.0, 0.35, D="CLKB", G="CLK", S="VDD", B="VDD"),
    ])
    blocks = [latch, set_in, rst_in, buf_q, buf_qb, tgate, clk_inv]
    constraints = [sym_pair_v(1, 2), sym_pair_v(3, 4)]
    return Circuit.from_blocks("RS-Latch", blocks, constraints=constraints)


def driver() -> Circuit:
    """17-block MOSFET low-side driver (paper Driver; cf. ref [12]).

    Large output devices plus pre-driver chain, protection and sensing —
    the block-area spread (power FETs much larger than logic) is what makes
    this circuit hard for the floorplanner, so we keep that spread.
    """
    blocks: List[FunctionalBlock] = []
    # Power output stage: 4 big segments (power switch fingers).
    for k in range(4):
        blocks.append(_block(f"PWR{k}", S.POWER_SWITCH, [
            nmos(f"NP{k}", 400.0, 0.6, stripes=16, D="PAD", G=f"GDRV{k}", S="VSS", B="VSS"),
        ]))
    # Gate drive distribution: 4 pre-drivers feeding the segments.
    for k in range(4):
        blocks.append(_block(f"PRE{k}", S.PUSH_PULL_OUTPUT, [
            pmos(f"PP{k}", 40.0, 0.35, stripes=4, D=f"GDRV{k}", G="DRVIN", S="VDD", B="VDD"),
            nmos(f"NN{k}", 20.0, 0.35, stripes=2, D=f"GDRV{k}", G="DRVIN", S="VSS", B="VSS"),
        ]))
    # Input chain: level shifter, two inverters, schmitt-like comparator.
    blocks.append(_block("LVL", S.LEVEL_SHIFTER, [
        nmos("NL1", 10.0, 0.5, D="LSOUT", G="IN", S="VSS", B="VSS"),
        pmos("PL1", 14.0, 0.5, D="LSOUT", G="INB", S="VDD", B="VDD"),
    ], routing="V"))
    blocks.append(_block("INV1", S.INVERTER, [
        nmos("NI1", 8.0, 0.35, D="INB", G="IN", S="VSS", B="VSS"),
        pmos("PI1", 12.0, 0.35, D="INB", G="IN", S="VDD", B="VDD"),
    ]))
    blocks.append(_block("INV2", S.INVERTER, [
        nmos("NI2", 16.0, 0.35, stripes=2, D="DRVIN", G="LSOUT", S="VSS", B="VSS"),
        pmos("PI2", 24.0, 0.35, stripes=2, D="DRVIN", G="LSOUT", S="VDD", B="VDD"),
    ]))
    blocks.append(_block("CMP", S.COMPARATOR_CORE, [
        nmos("NC1", 10.0, 0.5, D="OCFLAG", G="SENSE", S="CMPS", B="VSS"),
        nmos("NC2", 10.0, 0.5, D="CMPREF", G="VREF", S="CMPS", B="VSS"),
        nmos("NC3", 6.0, 1.0, D="CMPS", G="NBIAS", S="VSS", B="VSS"),
    ]))
    # Protection and sensing.
    blocks.append(_block("SENSE", S.SINGLE_DEVICE, [
        nmos("NS1", 8.0, 0.6, D="PAD", G="GDRV0", S="SENSE", B="VSS"),
    ], routing="V"))
    blocks.append(_block("RSNS", S.BIAS_RESISTOR, [
        resistor("RS1", 2.0, 20.0, stripes=2, P="SENSE", N="VSS"),
    ], routing="V"))
    blocks.append(_block("CLAMP", S.ESD_CLAMP, [
        nmos("NE1", 80.0, 0.6, stripes=8, D="PAD", G="VSS", S="VSS", B="VSS"),
    ]))
    blocks.append(_block("RGATE", S.RESISTOR_ARRAY, [
        resistor("RG1", 1.5, 15.0, P="DRVIN", N="GDRV0"),
        resistor("RG2", 1.5, 15.0, P="DRVIN", N="GDRV2"),
    ], routing="V"))
    blocks.append(_block("BIAS", S.SIMPLE_CURRENT_MIRROR, [
        nmos("NB1", 6.0, 2.0, D="NBIAS", G="NBIAS", S="VSS", B="VSS"),
        nmos("NB2", 6.0, 2.0, D="VREF", G="NBIAS", S="VSS", B="VSS"),
    ], routing="V"))
    constraints = [
        align_h(0, 1), align_h(1, 2), align_h(2, 3),
        align_v(4, 0), align_v(5, 1), align_v(6, 2), align_v(7, 3),
    ]
    return Circuit.from_blocks("Driver", blocks, constraints=constraints)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BUILDERS: Dict[str, Callable[[], Circuit]] = {
    "ota_small": ota_small,
    "ota1": ota1,
    "ota2": ota2,
    "bias_small": bias_small,
    "bias1": bias1,
    "bias2": bias2,
    "rs_latch": rs_latch,
    "driver": driver,
}

#: The five HCL training circuits (paper Sec. IV-D5: 3/5/8/3/9 blocks).
TRAINING_SET = ("ota_small", "ota1", "ota2", "bias_small", "bias1")

#: Table I evaluation circuits: three seen, three unseen (grey rows).
TABLE1_SEEN = ("ota1", "ota2", "bias1")
TABLE1_UNSEEN = ("rs_latch", "driver", "bias2")

#: Table II layout-completion circuits.
TABLE2_SET = ("ota_small", "bias1", "driver")


def get_circuit(name: str) -> Circuit:
    """Build a fresh instance of a named benchmark circuit."""
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise KeyError(f"unknown circuit {name!r}; available: {sorted(_BUILDERS)}") from None


def available_circuits() -> List[str]:
    return sorted(_BUILDERS)
