"""Simulate tip motion and obstacle clearance during growth.

Joint angles are folded into the body before deployment, so growth simply
advances the tip along the final shape; each bend snaps in as its joint
everts. We track the tip and the worst body-to-obstacle clearance while the
three-bend robot grows through the bundled obstacle scene.
"""

import os

import numpy as np

from vinefab import growth_trace, sweep_samples
from vinefab.formats import read_chain, read_scene, write_growth_trace

HERE = os.path.dirname(__file__)
OUT = os.path.join(HERE, "out")
os.makedirs(OUT, exist_ok=True)

chain = read_chain(os.path.join(HERE, "data", "chain_threebend.json"))
scene = read_scene(os.path.join(HERE, "data", "scene.json"))
total = chain.total_length
print(f"chain: {chain.n} links, {total:.0f} mm, radius {chain.radius} mm")
print(f"scene: {len(scene.spheres)} spheres, {len(scene.boxes)} boxes\n")

everted = np.linspace(0.0, total, 31).tolist()
tips, clearances = growth_trace(chain, everted, scene, step=1.0)
trace = list(zip(everted, tips, clearances))
print("everted_mm   tip (x, y, z) mm              clearance_mm")
for length, tip, clr in trace:
    if int(length) % 60 == 0:
        print(f"{length:10.1f}   ({tip[0]:7.1f}, {tip[1]:7.1f}, "
              f"{tip[2]:7.1f})   {clr:10.2f}")

write_growth_trace(trace, os.path.join(OUT, "growth_trace.csv"))

worst = min(trace, key=lambda row: row[2])
print(f"\nworst clearance {worst[2]:.2f} mm at everted length {worst[0]:.0f} mm")
if worst[2] < 0.0:
    print("the body penetrates an obstacle; redesign the path")
else:
    print("the body clears every obstacle along the whole growth")

# the swept body itself: centerline samples carrying the tube radius
_, centers = sweep_samples(chain, total, step=25.0)
print(f"swept body at full eversion: {centers.shape[0]} samples, "
      f"radius {chain.radius} mm")
print(f"wrote {os.path.join(OUT, 'growth_trace.csv')}")
