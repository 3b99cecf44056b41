"""Finite commutative rings with identity, stored as dense operation tables.

A ring is a pair of ``size x size`` numpy tables over element indices
``0..size-1`` together with distinguished ``zero`` and ``one`` indices.  The
ring constructor validates every axiom exactly, but quantifies the
three-variable laws (associativity, distributivity) over a small additive
generating set only, so validation costs O(n²·|G|) and never builds a table
of n³ entries (see ``FiniteRing._validate``).  Element-by-element work reads
the same tables as rows of Python ints (``add_rows``, ``mul_rows``), built
lazily once per ring, because indexing numpy scalars inside Python loops is
slow.

An ideal is stored as its element bitmask: bit x is set iff element x
belongs.  Every builder (spans, sums, intersections, radicals, preimages)
works on these ints, and ``Ideal.members`` derives the frozenset on first
read, for the public API and the witnesses.  ``Ideal(R, members)`` validates
the ideal axioms, so any set given from outside is checked.  Builders whose
result is an ideal by construction use ``_trusted_ideal``, which takes a mask
and skips that check; each says why its result is an ideal.

Rings compare by identity and are immutable after construction, so they are
safe to share.  Structures derived from a ring (its ideal lattice, spectra
with their topologies, canonical hom views, and whether it is von Neumann
regular) are cached in the ring's own ``_derived`` dict rather than in
module-level maps, so they are freed together with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

import numpy as np

from .caps import DEFAULT_CAPS
from .errors import (
    CapExceeded,
    ImproperIdeal,
    InvalidArity,
    InvalidSize,
    RingAxiomError,
    ZeroInMultiplicativeSet,
)


class FiniteRing:
    """A finite commutative ring with identity over element indices."""

    def __init__(self, add, mul, zero, one, label, names=None, components=None,
                 caps=DEFAULT_CAPS):
        add = np.array(add, dtype=np.int64)
        mul = np.array(mul, dtype=np.int64)
        size = add.shape[0]
        if size < 2:
            raise InvalidSize("rings must have at least 2 elements (0 != 1)")
        if size > caps.max_ring_size:
            raise CapExceeded(f"ring size {size} exceeds cap {caps.max_ring_size}")
        if add.shape != (size, size) or mul.shape != (size, size):
            raise RingAxiomError("operation tables must be square and equally sized")
        self.size = size
        self.add = add
        self.mul = mul
        self.zero = int(zero)
        self.one = int(one)
        self.label = label
        self.names = tuple(names) if names is not None else tuple(str(i) for i in range(size))
        self.components = tuple(components) if components is not None else None
        self._validate()
        self._derived = {}  # per-ring caches of the other modules, keyed by name
        # additive inverses: validation found a zero in every row of add
        self.neg = (add == self.zero).argmax(axis=1)
        add.flags.writeable = False
        mul.flags.writeable = False
        self.neg.flags.writeable = False

    def _validate(self):
        """Check the axioms of a commutative ring with identity, exactly.

        The checks and their messages come in a fixed order: ranges of zero
        and one; for + and then *, range, commutativity, associativity; then
        the identities, additive inverses and distributivity.  Every check
        is exact.  The three-variable laws quantify their third variable
        over G only (``_additive_generators``), a set whose closure under
        x ↦ x + g (g in G) is R, so that G generates (R, +) as a magma:

        - + is associative iff (x+g)+y = x+(g+y) for all x, y and g in G.
          Light's lemma: the middle-associative elements of a magma form a
          submagma, so they are all of R once they include G.
        - Once + is associative, * distributes over + iff a(b+c) = ab+ac
          for all a, b and c in G: if c and d are good, a(b+(c+d)) =
          a((b+c)+d) = (ab+ac)+ad = ab+a(c+d), so the good c are closed
          under +.
        - Once * commutes and distributes, * is associative iff
          (xg)y = x(gy) for all x, y and g in G: if m and m' are good,
          (x(m+m'))y = (xm)y+(xm')y = x(my)+x(m'y) = x((m+m')y).

        When distributivity fails, the reduced * check proves nothing, so
        associativity of * is scanned over every middle element instead,
        one n x n slice at a time; associativity keeps its precedence in
        the messages either way.
        """
        n, add, mul, zero, one = self.size, self.add, self.mul, self.zero, self.one
        if not (0 <= zero < n and 0 <= one < n):
            raise RingAxiomError("zero/one indices out of range")
        if zero == one:
            raise RingAxiomError("zero and one must differ")
        for table, op in ((add, "+"), (mul, "*")):
            # the range check comes before any indexing with table entries
            if table.min() < 0 or table.max() >= n:
                raise RingAxiomError(f"table for {op} contains out-of-range entries")
            if not np.array_equal(table, table.T):
                raise RingAxiomError(f"{op} is not commutative")
            if table is add:
                gens = _additive_generators(add)
                middles = gens
            else:
                distributes = all(
                    np.array_equal(mul[:, add[:, c]], add[mul, mul[:, c, None]])
                    for c in gens)
                middles = gens if distributes else range(n)
            if not all(np.array_equal(table[table[:, m]], table[:, table[m]])
                       for m in middles):
                raise RingAxiomError(f"{op} is not associative")
        if not np.array_equal(add[zero], np.arange(n)):
            raise RingAxiomError("zero is not an additive identity")
        if not np.array_equal(mul[one], np.arange(n)):
            raise RingAxiomError("one is not a multiplicative identity")
        # additive inverses: every row of add must contain zero
        if not np.all((add == zero).any(axis=1)):
            raise RingAxiomError("some element has no additive inverse")
        if not distributes:
            raise RingAxiomError("multiplication does not distribute over addition")

    # identity semantics: no __eq__/__hash__ overrides on purpose

    def __repr__(self):
        return f"FiniteRing({self.label}, size={self.size})"

    @property
    def elements(self):
        return range(self.size)

    def name(self, x):
        return self.names[x]

    @cached_property
    def add_rows(self):
        """``add_rows[a][b]`` is a+b, as tuples of Python ints."""
        return tuple(map(tuple, self.add.tolist()))

    @cached_property
    def mul_rows(self):
        """``mul_rows[a][b]`` is a*b, as tuples of Python ints."""
        return tuple(map(tuple, self.mul.tolist()))

    @cached_property
    def principal(self):
        """``principal[g]`` is the element mask of R·g = {r*g : r in R}.

        R·g is already an ideal, with no additive closure needed: it holds
        0·g and g = 1·g, r·g + s·g = (r+s)·g and s·(r·g) = (s·r)·g.
        """
        return tuple(map(_mask, self.mul_rows))

    @cached_property
    def powers(self):
        """``powers[x]`` is the element mask of {x^k : k >= 1}."""
        out = []
        for x, row in enumerate(self.mul_rows):
            m, p = 0, x
            while not m >> p & 1:  # powers of x cycle once one repeats
                m |= 1 << p
                p = row[p]
            out.append(m)
        return tuple(out)

    def sub(self, a, b):
        return self.add_rows[a][int(self.neg[b])]

    def is_unit(self, x):
        return self.principal[x] >> self.one & 1 == 1

    @cached_property
    def units(self):
        return tuple(x for x in self.elements if self.is_unit(x))

    @cached_property
    def idempotents(self):
        mul = self.mul_rows
        return tuple(x for x in self.elements if mul[x][x] == x)


def _additive_generators(add):
    """Greedy G whose closure under the translations x ↦ x + g (g in G) is R.

    Each element not yet reached joins G.  When + is a group operation, the
    closure of G is the subgroup it generates, so every new generator at
    least doubles it and |G| <= log2(n) + 1; ``[0, 1]`` for Z/n.
    """
    n = len(add)
    cols = add.T.tolist()  # cols[g][x] = x + g
    gens, reached = [], [False] * n
    for x in range(n):
        if reached[x]:
            continue
        gens.append(x)
        reached[x] = True
        stack = [y for y in range(n) if reached[y]]
        while stack:
            y = stack.pop()
            for g in gens:
                z = cols[g][y]
                if not reached[z]:
                    reached[z] = True
                    stack.append(z)
    return gens


def _mask(elements):
    """Element bitmask of an iterable of element indices."""
    return reduce(or_, (1 << x for x in elements), 0)


def _bits(mask):
    """The set bits of an element mask, lowest first: its elements, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, init=False)
class Ideal:
    """An ideal given by its element mask; ``proper`` is False exactly for R.

    The public constructor takes a member set, checks that its members are
    element indices of the ring and validates the ideal axioms (zero, closure
    under addition, absorption), so a member set from outside is always
    checked.  The library's own builders construct through ``_trusted_ideal``
    instead, which skips the check: their results are ideals by construction,
    being principal ideals R·g, sums and intersections of ideals, spans,
    radicals, or preimages of ideals under ring homs.  ``tests/test_ideals.py``
    certifies every such builder against a subset-filter oracle.
    """

    ring: FiniteRing
    mask: int

    def __init__(self, ring, members):
        m = frozenset(members)
        if not set(ring.elements).issuperset(m):
            raise RingAxiomError("ideal members must be element indices of the ring")
        if ring.zero not in m:
            raise RingAxiomError("ideal must contain zero")
        mask = _mask(m)
        add, principal = ring.add_rows, ring.principal
        for a in _bits(mask):
            row = add[a]
            if any(row[b] not in m for b in m):
                raise RingAxiomError("ideal not closed under addition")
            if principal[a] & ~mask:
                raise RingAxiomError("ideal does not absorb ring multiplication")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "mask", mask)

    @cached_property
    def members(self):
        """The member set, as a frozenset of element indices."""
        return frozenset(_bits(self.mask))

    @property
    def proper(self):
        return len(self) < self.ring.size

    def __contains__(self, x):
        return x in self.members

    def __le__(self, other):
        return self.mask & ~other.mask == 0

    def __lt__(self, other):
        return self.mask != other.mask and self <= other

    def __len__(self):
        return self.mask.bit_count()

    @cached_property
    def name(self):
        R = self.ring
        if not self.proper:
            return "R"
        if len(self) == 1:
            return "o"
        gens = _minimal_generators(self)
        return "⟨" + ",".join(R.name(g) for g in gens) + "⟩"

    def __repr__(self):
        return f"Ideal({self.name} of {self.ring.label})"


def _trusted_ideal(R, mask):
    """An Ideal of R from an element mask the caller knows to be an ideal.

    Skips the validation of ``Ideal.__init__`` (and so its O(|a|·|R|) cost);
    only for builders whose result is an ideal by construction.
    """
    a = object.__new__(Ideal)
    object.__setattr__(a, "ring", R)
    object.__setattr__(a, "mask", mask)
    return a


def _sum_mask(R, a, b):
    """a + b for the element masks of two ideals: the union of the cosets
    a + y for y in b.  The cosets of a partition R and the sum so far is a
    union of them, so a y it already holds adds nothing."""
    add = R.add_rows
    acc = a
    for y in _bits(b):
        if not acc >> y & 1:
            row = add[y]
            for x in _bits(a):
                acc |= 1 << row[x]
    return acc


def _span(R, seed):
    """Element mask of the smallest ideal containing ``seed``.

    A fold over the seed: the accumulator is always an ideal, and each
    generator not yet in it adds the principal ideal R·g by an ideal sum.
    """
    acc = 1 << R.zero
    for g in seed:
        if not acc >> g & 1:
            acc = _sum_mask(R, acc, R.principal[g])
    return acc


def _minimal_generators(a):
    """Canonical small generating set, singletons first, then greedy."""
    R = a.ring
    for x in _bits(a.mask):
        if R.principal[x] == a.mask:
            return (x,)
    gens = []
    have = 1 << R.zero
    while have != a.mask:
        x = next(_bits(a.mask & ~have))
        gens.append(x)
        have = _sum_mask(R, have, R.principal[x])
    return tuple(gens)


def zero_ideal(R):
    return _trusted_ideal(R, 1 << R.zero)


def unit_ideal(R):
    """The improper ideal R itself (proper flag False)."""
    return _trusted_ideal(R, (1 << R.size) - 1)


@dataclass(frozen=True)
class RingHom:
    """A unity-preserving ring homomorphism given by an index map."""

    source: FiniteRing
    target: FiniteRing
    map: tuple
    label: str = ""

    def __post_init__(self):
        src, tgt = self.source, self.target
        m = np.array(self.map, dtype=np.int64)
        if m.shape != (src.size,) or m.min() < 0 or m.max() >= tgt.size:
            raise RingAxiomError("hom map must send every source index to a target index")
        if m[src.one] != tgt.one:
            raise RingAxiomError("hom must map identity to identity")
        if not np.array_equal(m[src.add], tgt.add[m[:, None], m[None, :]]):
            raise RingAxiomError("map does not respect addition")
        if not np.array_equal(m[src.mul], tgt.mul[m[:, None], m[None, :]]):
            raise RingAxiomError("map does not respect multiplication")
        if not self.label:
            object.__setattr__(self, "label", f"{src.label} -> {tgt.label}")

    def __call__(self, x):
        return self.map[x]

    def preimage(self, mask):
        """Element mask of the preimage of a target element mask."""
        return _mask(x for x, y in enumerate(self.map) if mask >> y & 1)

    def kernel(self):
        """The preimage of zero, an ideal because the map is a ring hom."""
        return _trusted_ideal(self.source, self.preimage(1 << self.target.zero))

    def is_surjective(self):
        return len(set(self.map)) == self.target.size

    def __repr__(self):
        return f"RingHom({self.label})"


@dataclass(frozen=True)
class MultiplicativeSet:
    """A multiplicatively closed subset containing 1, built from generators."""

    ring: FiniteRing
    members: frozenset
    gens: tuple = ()

    def __contains__(self, x):
        return x in self.members


def multiplicative_closure(R, gens):
    """Close ``gens`` under multiplication and adjoin 1."""
    mul = R.mul_rows
    members = {R.one}
    frontier = [R.one]
    for g in gens:
        if g not in members:
            members.add(g)
            frontier.append(g)
    while frontier:
        row = mul[frontier.pop()]
        for y in list(members):
            p = row[y]
            if p not in members:
                members.add(p)
                frontier.append(p)
    return MultiplicativeSet(R, frozenset(members), tuple(gens))


# ---------------------------------------------------------------------------
# constructors


def make_zmod(n, caps=DEFAULT_CAPS, label=None):
    """The ring of integers modulo n."""
    if n < 2:
        raise InvalidSize(f"Z{n} is not a ring with 0 != 1")
    if n > caps.max_ring_size:  # before building the n x n tables
        raise CapExceeded(f"ring size {n} exceeds cap {caps.max_ring_size}")
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    return FiniteRing(add, mul, 0, 1, label or f"Z{n}", caps=caps)


def make_product(rings, caps=DEFAULT_CAPS, label=None):
    """Componentwise product; element index is little-endian mixed radix.

    The first factor is the least significant digit, so ``(1,0,0)`` in
    ``Z2 x Z2 x Z2`` has index 1.
    """
    rings = tuple(rings)
    if not rings:
        raise InvalidArity("product of an empty list of rings")
    sizes = [R.size for R in rings]
    total = 1
    for s in sizes:
        total *= s
    if total > caps.max_ring_size:
        raise CapExceeded(f"product size {total} exceeds cap {caps.max_ring_size}")

    # digits[k][i] is the k-th component of element i, weighted by strides[k]
    strides = np.cumprod([1] + sizes[:-1])
    index = np.arange(total)
    digits = [index // st % s for st, s in zip(strides, sizes)]
    add = sum(st * R.add[d[:, None], d] for R, st, d in zip(rings, strides, digits))
    mul = sum(st * R.mul[d[:, None], d] for R, st, d in zip(rings, strides, digits))
    columns = [[R.names[x] for x in d.tolist()] for R, d in zip(rings, digits)]
    names = ["(" + ",".join(parts) + ")" for parts in zip(*columns)]
    zero = int(sum(st * R.zero for R, st in zip(rings, strides)))
    one = int(sum(st * R.one for R, st in zip(rings, strides)))
    return FiniteRing(add, mul, zero, one,
                      label or "x".join(R.label for R in rings),
                      names=names, components=rings, caps=caps)


def product_encode(R, tup):
    """Index of a component tuple in a ring built by make_product."""
    if R.components is None:
        raise InvalidArity(f"{R.label} is not a product ring")
    sizes = [c.size for c in R.components]
    i = 0
    for x, s in zip(reversed(tup), reversed(sizes)):
        i = i * s + x
    return i


def make_quotient(R, a, caps=DEFAULT_CAPS, label=None):
    """Quotient R/a with minimal coset representatives, plus the surjection."""
    if not a.proper:
        raise ImproperIdeal("cannot form the quotient by the whole ring")
    coset_of = {}
    reps = []
    for r in R.elements:
        if r in coset_of:
            continue
        row = R.add_rows[r]
        coset = sorted(row[m] for m in _bits(a.mask))
        rep = coset[0]
        reps.append(rep)
        for x in coset:
            coset_of[x] = rep
    reps.sort()
    index_of = {rep: i for i, rep in enumerate(reps)}
    radd, rmul = R.add_rows, R.mul_rows
    add = [[index_of[coset_of[radd[i][j]]] for j in reps] for i in reps]
    mul = [[index_of[coset_of[rmul[i][j]]] for j in reps] for i in reps]
    names = [R.name(rep) for rep in reps]
    Q = FiniteRing(add, mul, index_of[coset_of[R.zero]], index_of[coset_of[R.one]],
                   label or f"{R.label}/{a.name}", names=names, caps=caps)
    hom = RingHom(R, Q, tuple(index_of[coset_of[r]] for r in R.elements))
    return Q, hom


def localize(R, S, caps=DEFAULT_CAPS, label=None):
    """Localization of R at the multiplicative set S.

    In a finite commutative ring the total product p of S has an idempotent
    power e, and the localization is the ring eR with identity e; the
    canonical map is r -> e*r.  Every member of S becomes a unit there.
    """
    if R.zero in S.members:
        raise ZeroInMultiplicativeSet("0 in S would collapse the ring")
    radd, rmul = R.add_rows, R.mul_rows
    p = reduce(lambda x, y: rmul[x][y], sorted(S.members), R.one)
    e = p
    for _ in range(2 * R.size):
        if rmul[e][e] == e:
            break
        e = rmul[e][p]
    else:  # pragma: no cover - impossible: powers of p must hit an idempotent
        raise RingAxiomError("no idempotent power found")
    members = list(_bits(R.principal[e]))
    index_of = {x: i for i, x in enumerate(members)}
    add = [[index_of[radd[x][y]] for y in members] for x in members]
    mul = [[index_of[rmul[x][y]] for y in members] for x in members]
    names = [R.name(x) for x in members]
    gens_label = ",".join(R.name(g) for g in S.gens) if S.gens else ",".join(
        R.name(x) for x in sorted(S.members))
    L = FiniteRing(add, mul, index_of[R.zero], index_of[e],
                   label or f"{R.label}@({gens_label})", names=names, caps=caps)
    hom = RingHom(R, L, tuple(index_of[x] for x in rmul[e]))
    for s in S.members:
        if not L.is_unit(hom(s)):  # pragma: no cover - guaranteed by construction
            raise RingAxiomError("localized image of S member is not a unit")
    return L, hom


# ---------------------------------------------------------------------------
# homomorphism search


def _hom_search(src, tgt, injective, find_all, cap):
    """Backtracking search for unity-preserving homs with forced propagation.

    Assigning the image of one element forces images of sums and products of
    already-assigned elements; contradictions prune the branch early.
    Deterministic: unknowns are filled smallest-first, images tried ascending.
    """
    if src.size * tgt.size > cap:
        raise CapExceeded(
            f"hom search space {src.size}x{tgt.size} exceeds cap {cap}")
    results = []
    tables = ((src.add_rows, tgt.add_rows), (src.mul_rows, tgt.mul_rows))

    def propagate(f):
        # returns closed map or None on contradiction
        changed = True
        while changed:
            changed = False
            known = [x for x in src.elements if f[x] >= 0]
            for a in known:
                for b in known:
                    for table, ttable in tables:
                        c = table[a][b]
                        v = ttable[f[a]][f[b]]
                        if f[c] < 0:
                            f[c] = v
                            changed = True
                        elif f[c] != v:
                            return None
        return f

    def ok_injective(f):
        assigned = [v for v in f if v >= 0]
        return len(assigned) == len(set(assigned))

    def dfs(f):
        f = propagate(list(f))
        if f is None or (injective and not ok_injective(f)):
            return False
        try:
            x = f.index(-1)
        except ValueError:
            results.append(tuple(f))
            return not find_all
        for img in range(tgt.size):
            if dfs(f[:x] + [img] + f[x + 1:]):
                return True
        return False

    start = [-1] * src.size
    start[src.zero] = tgt.zero
    start[src.one] = tgt.one
    dfs(start)
    return results


def enumerate_homs(R, S, caps=DEFAULT_CAPS):
    """All unity-preserving ring homomorphisms R -> S, in canonical order."""
    maps = _hom_search(R, S, injective=False, find_all=True, cap=caps.max_hom_product)
    return [RingHom(R, S, m) for m in sorted(maps)]


def is_isomorphic(R, S, caps=DEFAULT_CAPS):
    """Brute-force ring isomorphism test (intended for tests and demos)."""
    if R.size != S.size:
        return False
    found = _hom_search(R, S, injective=True, find_all=False, cap=caps.max_hom_product)
    return bool(found)


def is_von_neumann_regular(R):
    """Every a admits x with a = a*x*a; finite cases are products of fields.
    Asked once per ring: the answer is kept in ``R._derived``."""
    regular = R._derived.get("regular")
    if regular is None:
        mul = R.mul_rows
        regular = R._derived["regular"] = all(
            any(mul[mul[a][x]][a] == a for x in R.elements) for a in R.elements)
    return regular
