"""Integrate forms over faces, exactly, and close the loop.

Every integral here is a plain Fraction read off integer rows: the
pullback to a face, along its vertex order, is a sparse integer operator,
and since the simplex moments of an affine coefficient are closed-form,
(k+1)! times the integral over a k-face is one fixed combination of its
rows. Integrating a Whitney form over all faces recovers the cochain it
was built from, coefficient for coefficient.
"""

from random import Random

from whitneyforms import (
    Face,
    derham,
    enumerate_faces,
    integrate_over_face,
    random_cochain,
    render_cochain,
    render_form,
    whitney,
    whitney_basis_form,
)

w = whitney_basis_form(Face(2, (1, 2)))
print(f"The edge form {render_form(w)} integrates to:")
for face in enumerate_faces(2, 1):
    value = integrate_over_face(w, face)
    print(f"  over {list(face.vertices)}: {value}")
print("  over [2,1]:", integrate_over_face(w, Face(2, (2, 1))), "(orientation flips the sign)")

print()
print("Round trip on a random 1-cochain in dimension 3:")
c = random_cochain(Random(7), 3, 1)
print(f"  cochain:    {render_cochain(c)}")
form = whitney(c)
print(f"  form:       {render_form(form)}")
back = derham(form)
print(f"  integrals:  {render_cochain(back)}")
print(f"  recovered exactly: {back == c}")

print()
print("The same loop closes for every degree up to dimension 4:")
for n in range(1, 5):
    for k in range(n + 1):
        c = random_cochain(Random(n * 10 + k), n, k)
        ok = derham(whitney(c)) == c
        print(f"  n={n} k={k}: {'ok' if ok else 'MISMATCH'}")
