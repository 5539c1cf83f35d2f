"""Recover as-built DH parameters from optical marker logs.

Each bend joint carries three 6-DoF markers: one on the joint and one a
fixed offset toward each neighbor (the chain base and tip stand in at the
ends). The bundled logs contain 100 samples per marker at 20 Hz with
realistic sensor noise, taken before and after repeated growth.
"""

import os

from vinefab import dh_errors, recover_dh
from vinefab.formats import (read_chain, read_markers, write_errors,
                             write_measured)

HERE = os.path.dirname(__file__)
OUT = os.path.join(HERE, "out")
os.makedirs(OUT, exist_ok=True)

target = read_chain(os.path.join(HERE, "data", "chain_threebend.json"))

for phase in ("pre", "post"):
    records = read_markers(os.path.join(HERE, "data", f"markers_{phase}.csv"))
    first = records[0]
    mean = first.positions.mean(axis=0)
    print(f"[{phase}] {len(records)} markers, {len(first.times)} samples "
          f"each; e.g. '{first.marker_id}' averages to "
          f"({mean[0]:.3f}, {mean[1]:.3f}, {mean[2]:.3f}) mm")

    measured = recover_dh(records, phase=phase)
    errors = dh_errors(measured, target)
    print(f"  parameter  idx   target    measured    error")
    for kind, index, t, m, e in zip(errors.kind, errors.index, errors.target,
                                    errors.measured, errors.error):
        unit = "deg" if kind in ("joint", "twist") else "mm"
        print(f"  {kind:<9} {index:>4} {t:9.3f} {m:11.4f} {e:+9.4f} {unit}")

    write_measured(measured, os.path.join(OUT, f"measured_{phase}.json"))
    write_errors(errors, os.path.join(OUT, f"errors_{phase}.csv"))
    print()

print(f"outputs in {OUT}")
print("pre-growth errors reflect sensor noise only; post-growth errors also "
      "include how much the bends settled during repeated eversion")
