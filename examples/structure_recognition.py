"""Structure recognition demo: rule-based grouping of a flat netlist.

Run:  python examples/structure_recognition.py

Flattens the OTA-2 netlist to bare devices, recovers functional blocks
with the deterministic rule engine, and tags each recovered group OK
(all its devices come from one known block) or mixed (they span several).
"""

from repro.circuits import get_circuit
from repro.sr import recognize_rules


def main() -> None:
    circuit = get_circuit("ota2")
    devices = [d for b in circuit.blocks for d in b.devices]
    owner = {d.name: b.name for b in circuit.blocks for d in b.devices}
    print(f"Flattened {circuit.name}: {len(devices)} devices\n")

    print("--- Rule-based recognition ---")
    for block in recognize_rules(devices):
        members = ", ".join(block.device_names)
        known = {owner[n] for n in block.device_names}
        tag = "OK" if len(known) == 1 else f"mixed: {sorted(known)}"
        print(f"  {block.structure.name:<24} {members}  [{tag}]")


if __name__ == "__main__":
    main()
