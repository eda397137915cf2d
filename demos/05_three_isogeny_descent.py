"""The Selmer-ratio bound for a 3-isogeny.

Over an imaginary quadratic field where every bad prime splits, the
ratio of the two Selmer group sizes attached to the 3-isogeny is a
torsion factor times an archimedean factor times local Tamagawa ratios.
Two split places with 3 | C' on the quotient push dim Sel >= 4, and the
rank-1 hypothesis leaves dim Sha(E/K)[3] >= 2.
"""

from ecdescent import build_curve, cassels_ledger, global_data, sha3_criterion, z3_point

a, d = 10, -10
E = build_curve(z3_point(a, 1))
print("E =", E, " N =", global_data(E).conductor)

led = cassels_ledger(a, d)
print("\nledger over Q(sqrt(-10)):")
for key, val in led.as_dict().items():
    print(f"  {key}: {val}")

cert = sha3_criterion(a, d)
print("\ncertificate:", cert.conclusion, "with dim Sha[3] >=", cert.sha3_dim_lower)
print("witness Tamagawa numbers on the quotient:", cert.witnesses)

# when 3 | C already, the criterion short-circuits
for aa in range(2, 40):
    if aa == 3:
        continue
    E = build_curve(z3_point(aa, 1))
    if global_data(E).tamagawa_product % 3 == 0:
        cert = sha3_criterion(aa, -5)
        print(f"\na = {aa}: {cert.conclusion} (route {cert.route})")
        break
