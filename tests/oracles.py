"""Independent brute-force oracles.

These deliberately take the dumbest correct route (filter all subsets, joint
fixpoints, quotient-table scans) so they share no code path with the library
functions they certify.
"""

from functools import reduce

import numpy as np


def brute_force_ideal_sets(R):
    """Every subset of R's elements satisfying the ideal axioms."""
    n = R.size
    assert n <= 16, "oracle is exponential; keep rings tiny"
    out = []
    elems = list(range(n))
    for mask in range(1 << n):
        if not mask >> R.zero & 1:
            continue
        members = [x for x in elems if mask >> x & 1]
        mset = set(members)
        if any(int(R.add[a, b]) not in mset for a in members for b in members):
            continue
        if any(int(R.mul[r, a]) not in mset for a in members for r in elems):
            continue
        out.append(frozenset(members))
    return set(out)


def pair_closure_ideal_sets(R):
    """Every ideal of R as a member set, in canonical order (size first, then
    the ascending element tuple): the principal ideals R·g closed under
    pairwise sums {x + y : x in a, y in b}, all on frozensets.  Not
    exhaustive over subsets, so it also serves rings too large for
    ``brute_force_ideal_sets``."""
    add, mul = R.add.tolist(), R.mul.tolist()
    seen = {frozenset(row) for row in mul}
    frontier = list(seen)
    while frontier:
        m = frontier.pop()
        for other in list(seen):
            s = frozenset([add[x][y] for x in m for y in other])
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def brute_force_is_prime(R, members):
    """Primality via the coset multiplication table: no zero divisors mod a."""
    if len(members) == R.size:
        return False
    reps = {}
    for r in range(R.size):
        coset = frozenset(int(R.add[r, m]) for m in members)
        reps.setdefault(coset, r)
    classes = list(reps.values())
    zero_class = frozenset(members)
    for x in classes:
        for y in classes:
            cx = frozenset(int(R.add[x, m]) for m in members)
            cy = frozenset(int(R.add[y, m]) for m in members)
            if cx != zero_class and cy != zero_class:
                prod = int(R.mul[x, y])
                if prod in members:
                    return False
    return True


def joint_closure_family(subbase_masks, full_mask):
    """Closed family by a single fixpoint under pairwise union and intersection."""
    fam = set(subbase_masks) | {full_mask}
    changed = True
    while changed:
        changed = False
        items = list(fam)
        for i, a in enumerate(items):
            for b in items[i:]:
                for c in (a | b, a & b):
                    if c not in fam:
                        fam.add(c)
                        changed = True
    return fam


def up_set_family(spec):
    """All up-closed subsets of the point poset (inclusion order).

    For any spectrum the closed-subbase topology's closed sets are exactly
    these, because every principal up-set is a hull.
    """
    pts = spec.points
    n = len(pts)
    above = [[j for j in range(n) if pts[i] <= pts[j]] for i in range(n)]
    fam = set()
    for mask in range(1 << n):
        ok = True
        for i in range(n):
            if mask >> i & 1:
                if any(not mask >> j & 1 for j in above[i]):
                    ok = False
                    break
        if ok:
            fam.add(mask)
    return fam


def kernel_image_closure(spec):
    """im(k) as member sets: the points' member sets closed under pairwise
    intersection, plus R's elements from the empty subset."""
    seen = {frozenset(p.members) for p in spec.points}
    frontier = list(seen)
    while frontier:
        m = frontier.pop()
        for other in list(seen):
            c = m & other
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    seen.add(frozenset(range(spec.ring.size)))
    return seen


def brute_force_radical_members(R, members):
    out = set()
    for x in range(R.size):
        p = R.one
        for _ in range(R.size):
            p = int(R.mul[p, x])
            if p in members:
                out.add(x)
                break
    return frozenset(out)


def brute_force_ring_axioms(add, mul, zero, one):
    """The first ring axiom that the tables break, as ``FiniteRing`` words it,
    or None.  Every law is checked over all triples, with n³-entry tables."""
    add = np.array(add, dtype=np.int64)
    mul = np.array(mul, dtype=np.int64)
    n = add.shape[0]
    if not (0 <= zero < n and 0 <= one < n):
        return "zero/one indices out of range"
    if zero == one:
        return "zero and one must differ"
    for table, op in ((add, "+"), (mul, "*")):
        if table.min() < 0 or table.max() >= n:
            return f"table for {op} contains out-of-range entries"
        if not np.array_equal(table, table.T):
            return f"{op} is not commutative"
        if not np.array_equal(table[table, :], table[:, table]):
            return f"{op} is not associative"
    if not np.array_equal(add[zero], np.arange(n)):
        return "zero is not an additive identity"
    if not np.array_equal(mul[one], np.arange(n)):
        return "one is not a multiplicative identity"
    if not np.all((add == zero).any(axis=1)):
        return "some element has no additive inverse"
    if not np.array_equal(mul[:, add], add[mul[:, :, None], mul[:, None, :]]):
        return "multiplication does not distribute over addition"
    return None


def reference_classify(R, ideal_sets, members, kind):
    """Whether the ideal ``members`` is of the named kind, by the per-ideal
    definitional loops.  ``ideal_sets`` is every ideal of R as a member set;
    products and radicals are computed from R's tables and that list."""
    kind = getattr(kind, "value", kind)
    n = R.size
    mul = R.mul.tolist()
    full = frozenset(range(n))
    a = frozenset(members)
    lattice = [frozenset(b) for b in ideal_sets]

    def smallest_containing(s):
        return reduce(frozenset.intersection, [b for b in lattice if s <= b], full)

    def is_prime(m):
        out = [x for x in range(n) if x not in m]
        return m != full and all(mul[x][y] not in m for x in out for y in out)

    if kind == "fgn":
        return True  # every ideal of a finite ring is finitely generated
    if a == full:
        return False
    if kind == "prp":
        return True
    if kind == "spc":
        return is_prime(a)
    if kind == "rad":
        return brute_force_radical_members(R, a) == a
    if kind == "prm":
        rad = brute_force_radical_members(R, a)
        return all(mul[x][y] not in a
                   for x in range(n) if x not in a for y in range(n) if y not in rad)
    if kind == "nil":
        return brute_force_radical_members(R, {R.zero}) >= a
    if kind == "nip":
        cur = a
        for _ in range(n):
            if len(cur) == 1:
                return True
            nxt = smallest_containing(frozenset(mul[x][y] for x in cur for y in a))
            if nxt == cur:
                return False
            cur = nxt
        return len(cur) == 1
    if kind == "prn":
        return any(frozenset(mul[r][x] for r in range(n)) == a for x in a)
    if kind == "reg":
        return any(mul[x].count(R.zero) == 1 for x in a)
    if kind == "max":
        return all(not (a < b and b != full) for b in lattice)
    if kind == "min":
        return len(a) > 1 and all(not (len(b) > 1 and b < a) for b in lattice)
    if kind == "spn":
        return is_prime(a) and all(not (b < a and is_prime(b)) for b in lattice)
    if kind == "irr":
        return all(b & c != a or b == a or c == a for b in lattice for c in lattice)
    if kind == "irc":
        return reduce(frozenset.intersection, [b for b in lattice if a < b], full) != a
    if kind == "irs":
        return all(b <= a or c <= a or not b & c <= a for b in lattice for c in lattice)
    raise AssertionError(f"unhandled kind {kind}")
