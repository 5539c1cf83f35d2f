"""Design a robot from 3D waypoints instead of explicit DH parameters.

A path is sketched as waypoints (e.g. around obstacles in a CAD model),
rigidly moved into the chain base frame, fit as a DH chain, and compiled.
The round trip back through forward kinematics confirms the fit is exact.
"""

import os

import numpy as np

from vinefab import (GapModel, canonicalize_polyline, compile_plan,
                     dh_to_polyline, polyline_to_dh)
from vinefab.formats import read_polyline

HERE = os.path.dirname(__file__)
OUT = os.path.join(HERE, "out")
os.makedirs(OUT, exist_ok=True)

waypoints = read_polyline(os.path.join(HERE, "data", "path_waypoints.csv"))
print(f"{len(waypoints)} waypoints, segment lengths "
      f"{np.round(np.linalg.norm(np.diff(waypoints, axis=0), axis=1), 1)} mm")

# the chain base sits at the world origin with its first link along +x, so
# arbitrary paths are first moved into that frame
canonical, base_pose = canonicalize_polyline(waypoints)
chain = polyline_to_dh(canonical, radius=16.5)

print("fit chain:")
for i, link in enumerate(chain.links, start=1):
    print(f"  link {i}: a = {link.a:7.2f} mm   theta = "
          f"{np.degrees(link.theta):7.2f} deg   alpha = "
          f"{np.degrees(link.alpha):7.2f} deg")

# verify: forward kinematics reproduces the waypoints after moving back
back = dh_to_polyline(chain) @ base_pose.rotation.T + base_pose.translation
print(f"round-trip waypoint error: {np.max(np.abs(back - waypoints)):.2e} mm")

plan = compile_plan(chain, GapModel.for_method("weld"))
print(f"compiled {plan.n} cylinders, total tube "
      f"{plan.total_tube_length:.1f} mm")
from vinefab.formats import write_plan  # noqa: E402

write_plan(plan, os.path.join(OUT, "plan_from_polyline.json"))
print(f"wrote {os.path.join(OUT, 'plan_from_polyline.json')}")
