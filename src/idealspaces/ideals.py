"""Ideal lattices: enumeration, arithmetic, and spectrum-kind classification.

The lattice of a ring is computed once and cached on the ring itself, as the
closure of all principal ideals under pairwise sums.  Classification
predicates are definitional loops over elements and lattice members; the test
suite cross-checks the enumeration against a dumb subset-filter oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, reduce

import numpy as np

from .caps import DEFAULT_CAPS
from .errors import CapExceeded, MixedRings
from .rings import FiniteRing, RingHom, _span, _sum_members, _trusted_ideal


def generate_ideal(R, gens):
    """Smallest ideal of R containing the given element indices."""
    return _trusted_ideal(R, _span(R, gens))


@dataclass(frozen=True)
class IdealLattice:
    """All ideals of one ring, canonically ordered (o first, R last).

    An ideal is addressed by its lattice index; ``masks[i]`` is the element
    bitmask of ``ideals[i]`` and ``leq[i, j]`` is True iff ideals[i] <=
    ideals[j].  The arithmetic of the lattice is kept as lazy tables of
    lattice indices, each computed on first use:

    - ``sum[i, j]`` is a_i + a_j, the join: the first ideal in canonical
      order that contains both (every other upper bound contains the join,
      so it is larger and comes later);
    - ``meet[i, j]`` is a_i ∩ a_j: the last ideal in canonical order
      contained in both;
    - ``product[i, j]`` is a_i·a_j, the smallest ideal holding every x*y;
    - ``radical[i]`` is √a_i.

    The tables depend on the ring alone, not on a spectrum kind, so one copy
    serves every check on every kind.
    """

    ring: FiniteRing
    ideals: tuple
    leq: np.ndarray

    def __len__(self):
        return len(self.ideals)

    @property
    def proper(self):
        return self.ideals[:-1]

    def index(self, a):
        """Lattice index of an ideal of this ring."""
        return self.mask_index[a.mask]

    def __post_init__(self):
        masks = tuple(a.mask for a in self.ideals)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "mask_index", {m: i for i, m in enumerate(masks)})

    def smallest_containing(self, mask):
        """Index of the ideal generated by the elements of an element mask."""
        return next(i for i, m in enumerate(self.masks) if mask & ~m == 0)

    @cached_property
    def sum(self):
        leq = self.leq
        # (leq[i] & leq)[j, k]: a_k contains both a_i and a_j
        return np.stack([(leq[i] & leq).argmax(axis=1) for i in range(len(leq))])

    @cached_property
    def meet(self):
        below = self.leq.T
        last = len(below) - 1
        # (below[i] & below)[j, k]: a_k lies in both a_i and a_j
        return np.stack([last - (below[i] & below)[:, ::-1].argmax(axis=1)
                         for i in range(len(below))])

    @cached_property
    def product(self):
        mul = self.ring.mul_rows
        ideals = self.ideals
        n = len(ideals)
        out = np.empty((n, n), dtype=np.intp)
        for i, a in enumerate(ideals):
            for j in range(i, n):
                prods = {mul[x][y] for x in a.members for y in ideals[j].members}
                out[i, j] = out[j, i] = self.smallest_containing(_elements_mask(prods))
        return out

    @cached_property
    def radical(self):
        powers = []  # powers[x]: element mask of {x^k : k >= 1}
        for x, row in enumerate(self.ring.mul_rows):
            m, p = 0, x
            while not m >> p & 1:
                m |= 1 << p
                p = row[p]
            powers.append(m)
        return np.array([
            self.mask_index[_elements_mask(x for x, pw in enumerate(powers) if pw & am)]
            for am in self.masks])

    @cached_property
    def witness_indices(self):
        """Lattice indices in the canonical witness order (``witness_order``)."""
        return tuple(self.index(a) for a in witness_order(self.ideals))

    def maximal_ideals(self):
        n = len(self.ideals)
        out = []
        for i, a in enumerate(self.ideals[:-1]):
            covers = [j for j in range(n) if self.leq[i, j] and j != i]
            if covers == [n - 1]:
                out.append(a)
        return out


def _elements_mask(elements):
    m = 0
    for x in elements:
        m |= 1 << x
    return m


def enumerate_ideals(R, caps=DEFAULT_CAPS):
    """The complete ideal lattice of R, built once and kept on the ring.

    Closure of the principal ideals under pairwise sum; completeness rests on
    every ideal being the sum of the principal ideals of its elements, and is
    re-verified against an independent oracle in the tests.
    """
    cached = R._derived.get("lattice")
    if cached is not None:
        if len(cached) > caps.max_ideals:
            raise CapExceeded(f"{len(cached)} ideals exceed cap {caps.max_ideals}")
        return cached
    seen = set(R.principal)
    if len(seen) > caps.max_ideals:
        raise CapExceeded(f"ideal count exceeds cap {caps.max_ideals}")
    frontier = list(seen)
    while frontier:
        m = frontier.pop()
        for other in list(seen):
            s = _sum_members(R, m, other)
            if s not in seen:
                if len(seen) >= caps.max_ideals:
                    raise CapExceeded(f"ideal count exceeds cap {caps.max_ideals}")
                seen.add(s)
                frontier.append(s)
    ideals = tuple(sorted((_trusted_ideal(R, m) for m in seen), key=lambda a: a.sort_key))
    n = len(ideals)
    leq = np.zeros((n, n), dtype=bool)
    for i, a in enumerate(ideals):
        for j, b in enumerate(ideals):
            leq[i, j] = a <= b
    lattice = IdealLattice(R, ideals, leq)
    R._derived["lattice"] = lattice
    return lattice


def witness_order(ideals):
    """Canonical search order for witnesses: largest ideals first."""
    return sorted(ideals, key=lambda a: (-len(a.members), tuple(sorted(a.members))))


# ---------------------------------------------------------------------------
# ideal arithmetic


def _same_ring(a, b):
    if a.ring is not b.ring:
        raise MixedRings(f"ideals of {a.ring.label} and {b.ring.label}")
    return a.ring


def ideal_sum(a, b):
    """a + b = {x + y : x in a, y in b}, an ideal because a and b are."""
    R = _same_ring(a, b)
    return _trusted_ideal(R, _sum_members(R, a.members, b.members))


def ideal_intersect(a, b):
    """Meet of two ideals; an intersection of ideals is an ideal."""
    R = _same_ring(a, b)
    return _trusted_ideal(R, a.members & b.members)


def ideal_product(a, b):
    """The span of all products x*y, the smallest ideal containing them."""
    R = _same_ring(a, b)
    mul = R.mul_rows
    prods = {mul[x][y] for x in a.members for y in b.members}
    return _trusted_ideal(R, _span(R, prods))


def radical(a):
    """{x : x^k in a for some k}; powers of an element cycle, so k <= |R|.

    The radical of an ideal is an ideal (the nilradical of R/a pulled back).
    """
    R = a.ring
    m = a.members
    out = set()
    for x, row in enumerate(R.mul_rows):
        p = x
        for _ in range(R.size):
            if p in m:
                out.add(x)
                break
            p = row[p]
    return _trusted_ideal(R, frozenset(out))


def contraction(f: RingHom, b):
    """Preimage of an ideal of the target; always an ideal of the source."""
    if b.ring is not f.target:
        raise MixedRings("ideal does not belong to the hom's target")
    m = b.members
    return _trusted_ideal(f.source, frozenset(x for x, y in enumerate(f.map) if y in m))


def jacobson_radical(R, caps=DEFAULT_CAPS):
    """Intersection of all maximal ideals, itself an ideal."""
    lat = enumerate_ideals(R, caps)
    maxs = lat.maximal_ideals()
    members = reduce(lambda m, a: m & a.members, maxs, frozenset(R.elements))
    return _trusted_ideal(R, members)


# ---------------------------------------------------------------------------
# classification


class SpectrumKind(str, Enum):
    SPC = "spc"   # prime
    MAX = "max"   # maximal
    SPN = "spn"   # minimal prime
    MIN = "min"   # minimal among nonzero ideals
    PRP = "prp"   # proper
    RAD = "rad"   # radical
    PRM = "prm"   # primary
    NIL = "nil"   # every element nilpotent
    NIP = "nip"   # some power is the zero ideal
    IRR = "irr"   # irreducible
    IRC = "irc"   # completely irreducible
    PRN = "prn"   # principal
    REG = "reg"   # contains a non-zero-divisor
    FGN = "fgn"   # finitely generated (trivially all, kept for parity)
    IRS = "irs"   # strongly irreducible

    @property
    def title(self):
        return self.value.capitalize()


ALL_KINDS = tuple(SpectrumKind)


def _is_prime(a):
    R = a.ring
    if not a.proper:
        return False
    m, mul = a.members, R.mul_rows
    out = [x for x in R.elements if x not in m]
    return all(mul[x][y] not in m for x in out for y in out)


def _is_primary(a):
    R = a.ring
    if not a.proper:
        return False
    m, mul = a.members, R.mul_rows
    rad = radical(a).members
    outside_rad = [y for y in R.elements if y not in rad]
    return all(mul[x][y] not in m
               for x in R.elements if x not in m for y in outside_rad)


def _is_nilpotent_ideal(a):
    R = a.ring
    cur = a
    for _ in range(R.size):
        if len(cur.members) == 1:
            return True
        nxt = ideal_product(cur, a)
        if nxt.members == cur.members:
            return False
        cur = nxt
    return len(cur.members) == 1


def classify(a, kind, caps=DEFAULT_CAPS):
    """Decide membership of an ideal in the named spectrum.

    Every kind except FGN excludes the whole ring.  Kinds that quantify over
    the lattice (maximal, minimal, irreducible, ...) enumerate it on demand.
    """
    kind = SpectrumKind(kind)
    R = a.ring
    if kind is SpectrumKind.FGN:
        return True  # every ideal of a finite ring is finitely generated
    if not a.proper:
        return False
    if kind is SpectrumKind.PRP:
        return True
    if kind is SpectrumKind.SPC:
        return _is_prime(a)
    if kind is SpectrumKind.RAD:
        return radical(a).members == a.members
    if kind is SpectrumKind.PRM:
        return _is_primary(a)
    if kind is SpectrumKind.NIL:
        return all(R.is_nilpotent(x) for x in a.members)
    if kind is SpectrumKind.NIP:
        return _is_nilpotent_ideal(a)
    if kind is SpectrumKind.PRN:
        return any(R.principal[x] == a.members for x in a.members)
    if kind is SpectrumKind.REG:
        return any(not R.is_zero_divisor(x) for x in a.members)

    lat = enumerate_ideals(R, caps)
    if kind is SpectrumKind.MAX:
        return all(not (a < b and b.proper) for b in lat.ideals)
    if kind is SpectrumKind.MIN:
        return len(a.members) > 1 and all(
            not (len(b.members) > 1 and b < a) for b in lat.ideals)
    if kind is SpectrumKind.SPN:
        if not _is_prime(a):
            return False
        return all(not (b < a and _is_prime(b)) for b in lat.ideals)
    if kind is SpectrumKind.IRR:
        for b in lat.ideals:
            for c in lat.ideals:
                if b.members & c.members == a.members and \
                        b.members != a.members and c.members != a.members:
                    return False
        return True
    if kind is SpectrumKind.IRC:
        above = [b.members for b in lat.ideals if a < b]
        meet = reduce(lambda m, s: m & s, above, frozenset(R.elements))
        return meet != a.members
    if kind is SpectrumKind.IRS:
        for b in lat.ideals:
            if b <= a:
                continue
            for c in lat.ideals:
                if c <= a:
                    continue
                if b.members & c.members <= a.members:
                    return False
        return True
    raise AssertionError(f"unhandled kind {kind}")  # pragma: no cover
