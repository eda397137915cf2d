"""Descent through a 2-isogeny and the Sha(E/K)[2] lower bound.

For y^2 = x^3 + Ax^2 + Bx the local image of the connecting map is a
subgroup of the local square classes, computed by an exact p-adic scan.
Intersecting the Selmer group with its quadratic-twist counterpart and
adding the local norm indices gives the lower bound
dim Sha(E/K)[2] >= sum(i_l) + dim(Phi) - 3 under the rank-1 hypothesis.
"""

from ecdescent import (
    OO,
    WeierstrassModel,
    heegner_field_scan,
    kramer_sha2_bound,
    local_image,
    phi_selmer,
)

# the working curve for beta = 41^2: y^2 = x^3 + (41^2 + 8)x^2 + 16x
p = 41
E = WeierstrassModel.from_ainvs([0, p * p + 8, 0, 16, 0])
print("E =", E)
for place in [OO, 2, p]:
    img = local_image(E, place)
    print(f"  image at {place}: {sorted(img.elements)}")

sel = phi_selmer(E)
print("Selmer group basis:", [c.rep for c in sel.basis], "dim", sel.dim)

print("admissible fields:", heegner_field_scan(E, 30))
cert = kramer_sha2_bound(E, -2)
print("\ncertificate for d = -2:")
for key, val in cert.as_dict().items():
    print(f"  {key}: {val}")
