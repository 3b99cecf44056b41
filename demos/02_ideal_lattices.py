"""Ideal lattices and the fifteen spectrum kinds.

enumerate_ideals closes the principal ideals under adding a principal ideal,
on element bitmasks; the result is the complete lattice (the test suite certifies this against a brute-force
subset filter).  classify() sorts every ideal into the spectrum kinds.
"""

from idealspaces import ALL_KINDS, classify, enumerate_ideals, make_zmod, parse_ring_expression, radical

for expr in ("Z12", "Z36", "Z2xZ2xZ2"):
    R = parse_ring_expression(expr)
    lat = enumerate_ideals(R)
    print(f"\n{R.label}: {len(lat)} ideals")
    header = f"{'ideal':<14}" + "".join(f"{k.value:>5}" for k in ALL_KINDS)
    print(header)
    for a in lat.ideals:
        marks = "".join(f"{'x' if a.proper and classify(a, k) else '.':>5}"
                        for k in ALL_KINDS)
        print(f"{a.name:<14}{marks}")

# Radicals: the radical of <4> in Z12 is <2>, and radicals are idempotent.
Z12 = make_zmod(12)
lat = enumerate_ideals(Z12)
four = lat.ideals[2]
print(f"\nradical of {four.name} in Z12 is {radical(four).name}")
print(f"radical is idempotent on every ideal: "
      f"{all(radical(radical(a)).members == radical(a).members for a in lat.ideals)}")

# Finite-ring structure facts the suite leans on: primes are maximal, and
# prime = strongly irreducible + radical.
for R in (make_zmod(12), make_zmod(36)):
    lat = enumerate_ideals(R)
    assert all(classify(a, "spc") == classify(a, "max") for a in lat.ideals)
    assert all(classify(a, "spc") ==
               (classify(a, "irs") and classify(a, "rad")) for a in lat.ideals)
print("\nprimes = maximal = strongly-irreducible-and-radical, as expected here")
