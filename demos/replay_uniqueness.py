"""Watch uniqueness fall out one unknown at a time.

The homogeneous question is: can a nonzero affine-coefficient form have
constant pullbacks and zero integrals on every face? The replay walks the
faces in two stages and shows each constraint row determining exactly one
coefficient, until none are left. Stage 1 uses the faces through the
origin; stage 2 evaluates at the base vertex of each inclined face.
"""

from whitneyforms import UnknownLayout, proof_trace

for n, k in [(2, 1), (3, 1), (3, 2)]:
    trace = proof_trace(n, k)
    print(f"n={n}, k={k}")
    for step in trace["stage1"]:
        face = ",".join(str(v) for v in step["face"])
        print(f"  stage 1  face [{face}]  determines  {', '.join(step['killed'])}")
    for step in trace["stage2"]:
        span = ",".join(str(v) for v in step["L"])
        print(f"  stage 2  base vertex {step['m']}, span ({span})  determines  {step['killed']}")
    killed = [label for s in trace["stage1"] for label in s["killed"]]
    killed += [s["killed"] for s in trace["stage2"]]
    every = sorted(killed) == sorted(UnknownLayout(n, k).labels)
    print(f"  each unknown determined once: {every} ({len(killed)} unknowns in all)")
    print()
