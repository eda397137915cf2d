"""Rational 2- and 3-isogenies, quotient chains, and etale sides.

Quotients by rational torsion come from the classical kernel formulas;
when the cube criterion holds, the degree-3 quotient has a closed-form
model that is checked against the generic construction.  The pullback
scale of minimal invariant differentials decides which side of each
isogeny is etale.
"""

from fractions import Fraction

from ecdescent import (
    WeierstrassModel,
    etale_side,
    global_data,
    hadano_quotient,
    pullback_scale,
    three_isogeny_chain,
    velu_2_isogeny,
)

# degree-2 quotient of the prime-conductor-family curve
E = WeierstrassModel.from_ainvs([0, 5, 0, -1, 0])
rec = velu_2_isogeny(E, (0, 0))
print("E  =", rec.source)
print("E' =", rec.target, " disc' =", rec.target.discriminant)
print("etale side:", etale_side(pullback_scale(rec)))

# degree-3 quotient with the cube criterion
rec = hadano_quotient(5, 8)  # b = 2^3
print("\nquotient of y^2+5xy+8y = x^3:", rec.target)
print("cube criterion fails for b = 2:", hadano_quotient(5, 2))

# quotient chains: at most 4 curves, attained only in conductor 27
for a in [1, 10, -6]:
    chain = three_isogeny_chain(a)
    curves = [chain.records[0].source] + [r.target for r in chain.records]
    print(f"\na = {a}: chain of length {chain.length}")
    for w in curves:
        print("   ", global_data(w).minimal_model, "N =", global_data(w).conductor)
