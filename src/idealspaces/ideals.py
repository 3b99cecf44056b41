"""Ideal lattices: enumeration, arithmetic, and spectrum-kind classification.

The lattice of a ring is computed once and cached on the ring itself, as the
closure of all principal ideals under pairwise sums.  Its arithmetic (sum,
meet, product, radical) is kept as tables of lattice indices, and the fifteen
spectrum kinds as one bit row each (``IdealLattice.kind_rows``), computed
together in one pass over those tables; ``classify`` is a lookup in a row.
The tests certify the enumeration against a subset-filter oracle and every
kind row against the definitional per-ideal loops in ``tests/oracles.py``.
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
    def inside(self):
        """``inside[i, x]`` is True iff element x lies in ideals[i]."""
        inside = np.zeros((len(self.ideals), self.ring.size), dtype=bool)
        for i, a in enumerate(self.ideals):
            inside[i, list(a.members)] = True
        return inside

    @cached_property
    def product(self):
        # bad[k, i, j] counts the x in a_i, y in a_j with x*y outside a_k
        # (float32 counts of at most n² stay exact below 4096 elements); the
        # smallest ideal with no such pair comes first in canonical order
        inside = self.inside.astype(np.float32)
        bad = inside @ (~self.inside[:, self.ring.mul]).astype(np.float32) @ inside.T
        return (bad == 0).argmax(axis=0)

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
        row = self.kind_rows[SpectrumKind.MAX]
        return [a for i, a in enumerate(self.proper) if row >> i & 1]

    @cached_property
    def kind_rows(self):
        """``kind_rows[kind]``: bit i is set iff ideals[i] is of that kind.

        All fifteen rows come from one pass over the ring's tables and the
        lattice's own, each by its definition and none from another row by
        a theorem (the checks and tests assert those theorems):

        - SPC, PRM: no x outside a and y outside a (for PRM, outside √a)
          with x*y in a, read off the element-membership matrix and ``mul``;
        - RAD: √a = a; NIL: a ⊆ √o; NIP: a^k = o for some k, by the powers
          in ``product``;
        - MAX: R is the only other ideal containing a; MIN: o is the only
          other ideal inside a; SPN: prime with no smaller prime;
        - IRR: a is not b ∩ c with b, c ≠ a; IRC: a differs from the meet of
          the ideals strictly above it; IRS: b ∩ c ⊆ a forces b ⊆ a or
          c ⊆ a;
        - PRN: a = R·g for some g; REG: a holds a non-zero-divisor;
          PRP: a ≠ R; FGN: every ideal, R included.
        """
        R = self.ring
        n = len(self.ideals)
        idx = np.arange(n)
        leq, meet, rad = self.leq, self.meet, self.radical
        outside = ~self.inside
        prod_in = self.inside[:, R.mul]  # [i, x, y]: x*y lies in ideals[i]

        def never(left, right):  # no x in left[i], y in right[i] with x*y in ideals[i]
            return ~(left[:, :, None] & right[:, None, :] & prod_in).any(axis=(1, 2))

        spc = never(outside, outside)
        product = self.product.tolist()
        nip = np.zeros(n, dtype=bool)
        for i in range(n):
            p = i  # p runs through a, a², a³, ... until it stops shrinking
            while p and product[p][i] != p:
                p = product[p][i]
            nip[i] = p == 0
        irr = np.ones(n, dtype=bool)  # cleared where a_i = a_j ∩ a_k, a_j ≠ a_i ≠ a_k
        irr[meet[(meet != idx[:, None]) & (meet != idx)]] = False
        # common[i, k]: a_k lies in every ideal strictly above a_i
        strict = (leq & (idx[:, None] != idx)).astype(np.float32)
        common = strict @ (~leq).T.astype(np.float32) == 0
        nb = ~leq  # nb[j, i]: a_j is not inside a_i
        prn = np.zeros(n, dtype=bool)
        prn[[self.mask_index[_elements_mask(s)] for s in set(R.principal)]] = True
        regular = (R.mul == R.zero).sum(axis=1) == 1  # the non-zero-divisors
        rows = {
            SpectrumKind.SPC: spc,
            SpectrumKind.MAX: leq.sum(axis=1) == 2,
            SpectrumKind.SPN: spc & ((leq & spc[:, None]).sum(axis=0) == 1),
            SpectrumKind.MIN: leq.sum(axis=0) == 2,
            SpectrumKind.PRP: np.ones(n, dtype=bool),
            SpectrumKind.RAD: rad == idx,
            SpectrumKind.PRM: never(outside, outside[rad]),
            SpectrumKind.NIL: leq[:, rad[0]],
            SpectrumKind.NIP: nip,
            SpectrumKind.IRR: irr,
            SpectrumKind.IRC: n - 1 - common[:, ::-1].argmax(axis=1) != idx,
            SpectrumKind.PRN: prn,
            SpectrumKind.REG: (self.inside & regular).any(axis=1),
            SpectrumKind.FGN: np.ones(n, dtype=bool),
            SpectrumKind.IRS: ~(nb[:, None, :] & nb[None, :, :] & leq[meet]).any(axis=(0, 1)),
        }
        table = np.stack(list(rows.values()))
        table[:, -1] = False  # every kind but FGN excludes R itself
        table[list(rows).index(SpectrumKind.FGN), -1] = True
        packed = np.packbits(table, axis=1, bitorder="little")
        return {kind: int.from_bytes(bits.tobytes(), "little") for kind, bits in zip(rows, packed)}


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
        return _check_ideal_cap(cached, caps)
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


def _check_ideal_cap(lattice, caps):
    """The lattice, or CapExceeded when it holds more ideals than the caps."""
    if len(lattice) > caps.max_ideals:
        raise CapExceeded(f"{len(lattice)} ideals exceed cap {caps.max_ideals}")
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


def classify(a, kind, caps=DEFAULT_CAPS):
    """Whether the ideal a is of the named kind: a lookup in the kind rows
    of its ring's lattice.  Every kind except FGN excludes the whole ring."""
    lat = enumerate_ideals(a.ring, caps)
    return bool(lat.kind_rows[SpectrumKind(kind)] >> lat.index(a) & 1)
