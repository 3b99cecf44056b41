import json
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealspaces import (
    DEFAULT_SUITE_EXPRS,
    Caps,
    CapExceeded,
    ImproperIdeal,
    InvalidArity,
    InvalidSize,
    RingAxiomError,
    ZeroInMultiplicativeSet,
    contraction,
    enumerate_homs,
    enumerate_ideals,
    generate_ideal,
    is_isomorphic,
    is_von_neumann_regular,
    jacobson_radical,
    localize,
    make_product,
    make_quotient,
    make_zmod,
    multiplicative_closure,
    zero_ideal,
)
from idealspaces.rings import FiniteRing, Ideal
from oracles import brute_force_ring_axioms

SEARCH_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "search.json"


class TestMakeZmod:
    def test_z6_units_and_idempotents(self):
        R = make_zmod(6)
        assert R.units == (1, 5)
        assert R.idempotents == (0, 1, 3, 4)

    def test_z2_is_the_two_element_field(self):
        R = make_zmod(2)
        assert R.zero == 0 and R.one == 1
        assert R.units == (1,)

    def test_z4_two_squared_vanishes(self):
        R = make_zmod(4)
        assert R.mul[2, 2] == 0

    def test_too_small(self):
        with pytest.raises(InvalidSize):
            make_zmod(1)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            make_zmod(100)
        make_zmod(100, caps=Caps(max_ring_size=128))

    def test_cap_is_checked_before_building_tables(self):
        # parsing untrusted text such as "Z99999" must not allocate n^2 cells
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded):
                make_zmod(1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the 1000 x 1000 tables take tens of MiB

    @given(st.integers(min_value=2, max_value=30))
    @settings(max_examples=15, deadline=None)
    def test_constructor_validates_axioms(self, n):
        make_zmod(n)  # would raise on any axiom violation

    def test_axiom_violation_rejected(self):
        R = make_zmod(4)
        mul = np.array(R.mul)
        mul[2, 3] = 1  # breaks commutativity
        with pytest.raises(RingAxiomError):
            FiniteRing(R.add, mul, 0, 1, "broken")

    def test_validation_builds_no_cubic_table(self):
        make_zmod(3)  # warm the imports
        tracemalloc.start()
        try:
            make_zmod(64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # one 64³ int64 table alone takes 2 MiB


def _table(n, op):
    return [[op(a, b) % n for b in range(n)] for a in range(n)]


def _z(n):
    return _table(n, lambda a, b: a + b), _table(n, lambda a, b: a * b)


def _with(table, a, b, value):
    table = [list(row) for row in table]
    table[a][b] = value
    return table


_Z4_ADD, _Z4_MUL = _z(4)
_Z3_ADD, _Z3_MUL = _z(3)
_NOT_ASSOCIATIVE = _table(3, lambda a, b: -a - b)  # commutative, not associative
_MAX = [[max(a, b) for b in range(4)] for a in range(4)]
_MIN = [[min(a, b) for b in range(4)] for a in range(4)]
# Z2xZ2xZ2 (+ is xor, * is and on the index bits) with elements 6 and 7
# swapped in * only: * distributes over c = 0 and 1, but not over all of
# the additive generators 0, 1, 2, 4
_SWAP67 = [0, 1, 2, 3, 4, 5, 7, 6]
_XOR = [[a ^ b for b in range(8)] for a in range(8)]
_AND_SWAPPED = [[_SWAP67[_SWAP67[a] & _SWAP67[b]] for b in range(8)] for a in range(8)]


class TestRingValidation:
    """One case per message of ``FiniteRing``'s axiom check, each also
    worded the same by the n³ reference in ``oracles``, and seeded table
    edits on which the two must agree exactly."""

    CASES = [
        ("zero/one indices out of range", _Z4_ADD, _Z4_MUL, 4, 1),
        ("zero and one must differ", _Z4_ADD, _Z4_MUL, 0, 0),
        ("table for + contains out-of-range entries", _with(_Z4_ADD, 1, 2, -1), _Z4_MUL, 0, 1),
        ("table for + contains out-of-range entries", _with(_Z4_ADD, 3, 0, 4), _Z4_MUL, 0, 1),
        ("+ is not commutative", _with(_Z4_ADD, 1, 2, 0), _Z4_MUL, 0, 1),
        ("+ is not associative", _NOT_ASSOCIATIVE, _Z3_MUL, 0, 1),
        ("table for * contains out-of-range entries", _Z4_ADD, _with(_Z4_MUL, 2, 3, 4), 0, 1),
        ("* is not commutative", _Z4_ADD, _with(_Z4_MUL, 2, 3, 1), 0, 1),
        # also fails distributivity, which must not take precedence
        ("* is not associative", _Z3_ADD, _NOT_ASSOCIATIVE, 0, 1),
        ("zero is not an additive identity", _Z4_ADD, _Z4_MUL, 2, 1),
        ("one is not a multiplicative identity", _Z4_ADD, _Z4_MUL, 0, 3),
        # a distributive lattice: max has identity 0 but no inverses
        ("some element has no additive inverse", _MAX, _MIN, 0, 3),
        # x*y = x+y-1 is a commutative group with identity 1
        ("multiplication does not distribute over addition",
         _Z4_ADD, _table(4, lambda a, b: a + b - 1), 0, 1),
        ("multiplication does not distribute over addition", _XOR, _AND_SWAPPED, 0, 6),
    ]

    @pytest.mark.parametrize("message,add,mul,zero,one", CASES)
    def test_each_axiom_message(self, message, add, mul, zero, one):
        assert brute_force_ring_axioms(add, mul, zero, one) == message
        with pytest.raises(RingAxiomError, match=re.escape(message)):
            FiniteRing(add, mul, zero, one, "broken")

    def test_tables_must_be_square(self):
        with pytest.raises(RingAxiomError, match="square"):
            FiniteRing(_Z4_ADD, [row[:3] for row in _Z4_MUL], 0, 1, "broken")

    @pytest.mark.parametrize("expr", DEFAULT_SUITE_EXPRS + ("Z64",))
    def test_edited_tables_match_the_cubic_reference(self, ring, expr):
        R = ring(expr)
        n = R.size
        rng = random.Random(f"ring-axioms:{expr}")
        seen = set()
        for trial in range(60):
            tables = [np.array(R.add), np.array(R.mul)]
            edits = 1 if trial % 3 == 0 else 2
            t, a, b = rng.randrange(2), rng.randrange(n), rng.randrange(n)
            value = rng.choice((rng.randrange(n), rng.randrange(n), n, -1))
            tables[t][a, b] = value
            if trial % 3 == 1:  # a symmetric edit keeps the table commutative
                tables[t][b, a] = value
            elif edits == 2:
                tables[rng.randrange(2)][rng.randrange(n), rng.randrange(n)] = rng.randrange(n)
            expected = brute_force_ring_axioms(*tables, R.zero, R.one)
            try:
                FiniteRing(*tables, R.zero, R.one, "edited")
                got = None
            except RingAxiomError as exc:
                got = str(exc)
            assert got == expected, (expr, trial)
            seen.add(got)
        # the edits reach both associativity checks (on Z2, * needs more edits)
        assert "+ is not associative" in seen
        assert n == 2 or "* is not associative" in seen


class TestIdealValidation:
    """The public constructor checks every axiom; in Z2xZ2, (1,0) = 1,
    (0,1) = 2 and (1,1) = 3."""

    def test_rejects_a_set_without_zero(self, ring):
        with pytest.raises(RingAxiomError, match="zero"):
            Ideal(ring("Z2xZ2"), frozenset({1}))

    def test_rejects_a_set_not_closed_under_addition(self, ring):
        # absorbs multiplication, but (1,0) + (0,1) = (1,1) is missing
        with pytest.raises(RingAxiomError, match="addition"):
            Ideal(ring("Z2xZ2"), frozenset({0, 1, 2}))

    def test_rejects_a_subgroup_that_does_not_absorb(self, ring):
        # closed under addition, but (1,0)*(1,1) = (1,0) is missing
        with pytest.raises(RingAxiomError, match="absorb"):
            Ideal(ring("Z2xZ2"), frozenset({0, 3}))

    def test_rejects_indices_outside_the_ring(self, ring):
        # -3 would otherwise index element 1 and pass every other check
        for members in ({0, 1, -3}, {0, 99}):
            with pytest.raises(RingAxiomError, match="element indices"):
                Ideal(ring("Z2xZ2"), frozenset(members))

    def test_accepts_an_ideal(self, ring):
        R = ring("Z2xZ2")
        assert Ideal(R, frozenset({0, 1})) == generate_ideal(R, [1])


class TestMakeProduct:
    def test_triple_product_has_eight_ideals(self):
        R = make_product([make_zmod(2)] * 3)
        assert R.size == 8
        assert len(enumerate_ideals(R)) == 8

    def test_z6_squared_is_semisimple(self):
        R = make_product([make_zmod(6), make_zmod(6)])
        assert R.size == 36
        assert jacobson_radical(R).members == {R.zero}

    def test_unary_product_is_a_copy(self):
        Z4 = make_zmod(4)
        assert is_isomorphic(make_product([Z4]), Z4)

    def test_empty_product_rejected(self):
        with pytest.raises(InvalidArity):
            make_product([])

    def test_little_endian_indexing(self):
        R = make_product([make_zmod(2), make_zmod(3)])
        # (1, 0) is index 1; (0, 1) is index 2
        assert R.name(1) == "(1,0)"
        assert R.name(2) == "(0,1)"

    def test_tables_match_the_per_pair_loop(self):
        """Every product ring of the default suite and of the benchmark's
        search pool, against the decode/encode loop over element pairs."""
        pool = json.loads(SEARCH_POOL.read_text(encoding="utf-8"))["pool"]
        exprs = DEFAULT_SUITE_EXPRS + tuple(e for stratum in pool.values() for e in stratum)
        products = {re.split(r"[/@]", e)[0] for e in exprs}
        products = sorted(p for p in products if "x" in p)
        assert len(products) >= 80
        for expr in products:
            rings = [make_zmod(int(f[1:])) for f in expr.split("x")]
            R = make_product(rings)
            add, mul, names, zero, one = _pair_loop_product(rings)
            assert R.add.tolist() == add and R.mul.tolist() == mul, expr
            assert R.names == names and (R.zero, R.one) == (zero, one), expr


def _pair_loop_product(rings):
    """The product tables built element pair by element pair."""
    sizes = [R.size for R in rings]
    total = int(np.prod(sizes))

    def decode(i):
        out = []
        for s in sizes:
            out.append(i % s)
            i //= s
        return tuple(out)

    def encode(tup):
        i = 0
        for x, s in zip(reversed(tup), reversed(sizes)):
            i = i * s + x
        return i

    add = [[0] * total for _ in range(total)]
    mul = [[0] * total for _ in range(total)]
    for i in range(total):
        ti = decode(i)
        for j in range(total):
            tj = decode(j)
            add[i][j] = encode(tuple(R.add_rows[a][b] for R, a, b in zip(rings, ti, tj)))
            mul[i][j] = encode(tuple(R.mul_rows[a][b] for R, a, b in zip(rings, ti, tj)))
    names = tuple("(" + ",".join(R.name(x) for R, x in zip(rings, decode(i))) + ")"
                  for i in range(total))
    return (add, mul, names, encode(tuple(R.zero for R in rings)),
            encode(tuple(R.one for R in rings)))


class TestQuotient:
    def test_z12_mod_4_is_z4(self):
        R = make_zmod(12)
        Q, f = make_quotient(R, generate_ideal(R, [4]))
        assert is_isomorphic(Q, make_zmod(4))
        assert f.kernel().members == {0, 4, 8}
        assert f.is_surjective()

    def test_z12_mod_6_is_z6(self):
        R = make_zmod(12)
        Q, _ = make_quotient(R, generate_ideal(R, [6]))
        assert is_isomorphic(Q, make_zmod(6))

    def test_quotient_by_zero_is_a_copy(self):
        R = make_zmod(12)
        Q, f = make_quotient(R, zero_ideal(R))
        assert is_isomorphic(Q, R)
        assert len(f.kernel().members) == 1

    def test_improper_rejected(self):
        R = make_zmod(4)
        with pytest.raises(ImproperIdeal):
            make_quotient(R, generate_ideal(R, [1]))

    def test_contraction_of_zero_recovers_the_ideal(self):
        R = make_zmod(12)
        for gens in ([4], [6], [2], [3]):
            a = generate_ideal(R, gens)
            _, f = make_quotient(R, a)
            assert contraction(f, zero_ideal(f.target)).members == a.members


class TestLocalize:
    def test_z12_at_two(self):
        R = make_zmod(12)
        S = multiplicative_closure(R, [2])
        assert S.members == {1, 2, 4, 8}
        L, f = localize(R, S)
        assert sorted(int(x) for x in L.names) == [0, 4, 8]
        assert L.one == L.names.index("4")
        assert is_isomorphic(L, make_zmod(3))
        for s in S.members:
            assert L.is_unit(f(s))

    def test_kernel_is_the_annihilated_set(self):
        R = make_zmod(12)
        S = multiplicative_closure(R, [2])
        _, f = localize(R, S)
        expected = {r for r in R.elements
                    if any(R.mul[r, s] == R.zero for s in S.members)}
        assert f.kernel().members == expected

    def test_localize_at_units_is_a_copy(self):
        R = make_zmod(12)
        L, _ = localize(R, multiplicative_closure(R, [1]))
        assert is_isomorphic(L, R)

    def test_z6_at_three(self):
        R = make_zmod(6)
        S = multiplicative_closure(R, [3])
        assert S.members == {1, 3}
        L, _ = localize(R, S)
        assert L.names[L.one] == "3"  # 3*3 = 3 mod 6 is the idempotent
        assert is_isomorphic(L, make_zmod(2))

    def test_zero_rejected(self):
        R = make_zmod(6)
        with pytest.raises(ZeroInMultiplicativeSet):
            localize(R, multiplicative_closure(R, [0]))
        # nilpotent generators force 0 into the closure too
        R8 = make_zmod(8)
        with pytest.raises(ZeroInMultiplicativeSet):
            localize(R8, multiplicative_closure(R8, [2]))


class TestJacobson:
    def test_z6_semisimple(self):
        R = make_zmod(6)
        assert jacobson_radical(R).members == {0}

    def test_z4_local(self):
        R = make_zmod(4)
        assert jacobson_radical(R).members == {0, 2}

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_fields(self, p):
        assert jacobson_radical(make_zmod(p)).members == {0}


class TestHoms:
    def test_z12_to_z4_unique(self):
        homs = enumerate_homs(make_zmod(12), make_zmod(4))
        assert len(homs) == 1
        assert homs[0].map == tuple(r % 4 for r in range(12))

    def test_z2_to_z3_empty(self):
        assert enumerate_homs(make_zmod(2), make_zmod(3)) == []

    def test_identity_found(self):
        R = make_zmod(6)
        maps = [f.map for f in enumerate_homs(R, R)]
        assert tuple(range(6)) in maps

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_homs(make_zmod(12), make_zmod(12), caps=Caps(max_hom_product=100))

    def test_product_projections_are_homs(self):
        P = make_product([make_zmod(2), make_zmod(2)])
        homs = enumerate_homs(P, make_zmod(2))
        assert len(homs) == 2  # one projection per coordinate


class TestRegularity:
    def test_products_of_fields_are_regular(self):
        assert is_von_neumann_regular(make_zmod(6))
        assert is_von_neumann_regular(make_product([make_zmod(2)] * 3))
        assert is_von_neumann_regular(make_zmod(30))

    def test_z4_is_not(self):
        assert not is_von_neumann_regular(make_zmod(4))
