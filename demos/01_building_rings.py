"""Building finite commutative rings: cyclic, products, quotients, localizations.

Every constructor validates the full ring axioms exactly (the three-variable
laws are reduced to an additive generating set without losing any case), so
anything you get back is a genuine commutative ring with identity.
"""

from idealspaces import (
    enumerate_homs,
    generate_ideal,
    is_isomorphic,
    localize,
    make_product,
    make_quotient,
    make_zmod,
    multiplicative_closure,
    parse_ring_expression,
)

# The integers mod n.
Z12 = make_zmod(12)
print(f"{Z12.label}: size {Z12.size}")
print(f"  units       {[Z12.name(u) for u in Z12.units]}")
print(f"  idempotents {[Z12.name(e) for e in Z12.idempotents]}")

# Products are componentwise; the first factor is the least significant
# digit, so (1,0,0) sits at index 1.
P = make_product([make_zmod(2)] * 3)
print(f"\n{P.label}: element 1 is {P.name(1)}")

# Quotients come with their canonical surjection.
four = generate_ideal(Z12, [4])
Q, onto = make_quotient(Z12, four)
print(f"\n{Q.label} has size {Q.size};  kernel {sorted(onto.kernel().members)}")
print(f"  isomorphic to Z4? {is_isomorphic(Q, make_zmod(4))}")

# Localization at a multiplicative set S: in a finite ring the product of S
# has an idempotent power e, and the localization is simply eR.
S = multiplicative_closure(Z12, [2])
L, to_L = localize(Z12, S)
print(f"\nlocalizing {Z12.label} at closure of 2 = {sorted(S.members)}")
print(f"  result {L.label}: elements {list(L.names)}, identity {L.name(L.one)}")
print(f"  every member of S maps to a unit: "
      f"{all(L.is_unit(to_L(s)) for s in S.members)}")
print(f"  isomorphic to Z3? {is_isomorphic(L, make_zmod(3))}")

# Unity-preserving homomorphisms, found by exhaustive search with pruning.
homs = enumerate_homs(Z12, make_zmod(4))
print(f"\nhoms Z12 -> Z4: {len(homs)} (reduction mod 4)")
print(f"homs Z2 -> Z3:  {len(enumerate_homs(make_zmod(2), make_zmod(3)))} "
      "(1 must go to 1, and then 0 = 1+1 breaks)")

# The same rings via the expression grammar used by the CLI.
R = parse_ring_expression("Z6xZ6/((2,2))")
print(f"\nparsed {R.label}: size {R.size}")
