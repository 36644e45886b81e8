"""Recover a form from nothing but its face data.

Prescribe an integral for every edge of the tetrahedron, demand constant
pullbacks, and solve the resulting exact linear system. The solution
always coincides with the directly constructed Whitney form, and the
homogeneous system has only the zero solution, so nothing else works.
"""

from random import Random

from whitneyforms import (
    UnknownLayout,
    kernel_is_trivial,
    proof_trace,
    random_cochain,
    render_cochain,
    render_form,
    solve_characterization,
    whitney,
)

n, k = 3, 1
c = random_cochain(Random(11), n, k)
print(f"Prescribed edge integrals: {render_cochain(c)}")

trace = proof_trace(n, k)
stage1 = sum(len(step["killed"]) for step in trace["stage1"])
print(
    f"Unknowns: {UnknownLayout(n, k).size}, determined by {stage1} stage-1 and "
    f"{len(trace['stage2'])} stage-2 elimination steps"
)

solved = solve_characterization(n, k, c)
print(f"Solved form:  {render_form(solved)}")

direct = whitney(c)
print(f"Construction: {render_form(direct)}")
print(f"Identical: {solved == direct}")

print(f"Kernel of the homogeneous system is trivial: {kernel_is_trivial(n, k)}")
