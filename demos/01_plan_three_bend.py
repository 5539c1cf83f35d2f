"""Compile the three-bend test robot into fabrication parameters.

The robot: three 100 mm links, 45 degree bends at joints 2 and 3, a
45 degree twist on link 2, body radius 16.5 mm (33 mm diameter tube).
We compile it for flush fastening (tape/weld) and for loop fasteners,
whose screws hold the joined points 9.3 mm apart, then write the flat
pattern used to mark the tube.
"""

import math
import os

from vinefab import DHChain, GapModel, compile_plan, fk_chain, write_pattern
from vinefab.formats import fmt9, write_plan

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

chain = DHChain.from_arrays(
    a=[100.0, 100.0, 100.0],
    alpha=[0.0, math.radians(45.0), 0.0],
    theta=[0.0, math.radians(45.0), math.radians(45.0)],
    radius=16.5)

tip = fk_chain(chain)[-1].translation
print(f"deployed tip: ({fmt9(tip[0])}, {fmt9(tip[1])}, {fmt9(tip[2])}) mm\n")

for method in ("tape", "loop"):
    gap = GapModel.for_method(method)
    plan = compile_plan(chain, gap)
    print(f"--- {method} (d_g = {fmt9(gap.d_g)} mm) ---")
    print(f"cylinder lengths l_i : {[round(l, 3) for l in plan.cylinders.tolist()]} mm")
    print(f"fold distances s_i   : {[round(s, 3) for s in plan.s_tilde.tolist()]} mm")
    print(f"arc offsets          : {[round(s, 3) for s in plan.arc_offsets.tolist()]} mm")
    print(f"total tube length    : {fmt9(plan.total_tube_length)} mm")
    # marking a longer fold for each joint costs cylinder length; the loop
    # method's 9.3 mm gap lengthens every fold by the same geometry
    write_plan(plan, os.path.join(OUT, f"plan_{method}.json"))
    write_pattern(plan, os.path.join(OUT, f"pattern_{method}.svg"))
    print(f"wrote plan_{method}.json and pattern_{method}.svg\n")

print(f"outputs in {OUT}")
