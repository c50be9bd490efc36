"""Independent brute-force reference implementations for the tests.

Everything here works on raw image tuples and full element sets, never on the
package's group machinery, so a disagreement points at a real defect rather
than a shared bug. Costs are quadratic-ish; callers gate by group order.
"""

from __future__ import annotations

from math import lcm


def identity(degree):
    return tuple(range(degree))


def mul(a, b):
    return tuple(a[x] for x in b)


def inv(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def conj(x, g):
    return mul(inv(g), mul(x, g))


def comm(a, b):
    return mul(inv(a), mul(inv(b), mul(a, b)))


def order_of(x):
    cycles = {}
    seen = set()
    lengths = []
    for s in range(len(x)):
        if s in seen:
            continue
        n = 0
        p = s
        while p not in seen:
            seen.add(p)
            p = x[p]
            n += 1
        lengths.append(n)
    return lcm(*lengths) if lengths else 1


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_prime_power(n):
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True


def closure_gens(degree, gens):
    """Subgroup generated by gens, as a frozenset, by plain BFS."""
    idt = identity(degree)
    have = {idt}
    frontier = [idt]
    gens = [g for g in gens if g != idt]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in have:
                    have.add(y)
                    fresh.append(y)
        frontier = fresh
    return frozenset(have)


def greedy_gens(degree, elements):
    """The greedy generators of a known subgroup set: the least element
    outside the span so far, each time, the span closed by plain BFS."""
    idt = identity(degree)
    gens = []
    have = frozenset([idt])
    for x in sorted(elements):
        if len(have) == len(elements):
            break
        if x not in have:
            gens.append(x)
            have = closure_gens(degree, gens)
    return gens


def conj_classes(degree, elements):
    """Conjugacy classes as frozensets, sorted by (size, least member)."""
    gens = greedy_gens(degree, elements)
    remaining = set(elements)
    out = []
    for x in sorted(elements):
        if x not in remaining:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g in gens:
                z = conj(y, g)
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        remaining -= orbit
        out.append(frozenset(orbit))
    out.sort(key=lambda c: (len(c), min(c)))
    return out


def normal_subgroups(degree, elements):
    """All normal subgroups, by lectic (NextClosure) enumeration of the
    class-product closure system on conjugacy classes.

    A subgroup is normal iff it is a union of conjugacy classes closed under
    products, and for the class-set hit by class_i * class_j it suffices to
    multiply one representative of class_i against all of class_j.
    """
    elements = frozenset(elements)
    classes = conj_classes(degree, elements)
    m = len(classes)
    cls_of = {}
    for i, c in enumerate(classes):
        for x in c:
            cls_of[x] = i
    reps = [min(c) for c in classes]
    table = [[0] * m for _ in range(m)]
    for i in range(m):
        ri = reps[i]
        for j in range(m):
            mask = 0
            for y in classes[j]:
                mask |= 1 << cls_of[mul(ri, y)]
            table[i][j] = mask
    id_bit = 1 << cls_of[identity(degree)]

    def close(mask):
        mask |= id_bit
        while True:
            new = mask
            bits = [i for i in range(m) if (mask >> i) & 1]
            for i in bits:
                row = table[i]
                for j in bits:
                    new |= row[j]
            if new == mask:
                return mask
            mask = new

    closed = []
    current = close(0)
    closed.append(current)
    while True:
        nxt = None
        for i in range(m - 1, -1, -1):
            if (current >> i) & 1:
                continue
            below = current & ((1 << i) - 1)
            cand = close(below | (1 << i))
            if (cand & ((1 << i) - 1)) == below:
                nxt = cand
                break
        if nxt is None:
            break
        current = nxt
        closed.append(current)
    out = []
    for mask in closed:
        elems = set()
        for i in range(m):
            if (mask >> i) & 1:
                elems |= classes[i]
        out.append(frozenset(elems))
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def all_subgroups(degree, elements):
    """Every subgroup, by extending known subgroups with prime-power elements.

    Every group is generated by its elements of prime-power order, so the
    breadth-first extension reaches everything.
    """
    idt = identity(degree)
    ppow = [x for x in sorted(elements) if x != idt and is_prime_power(order_of(x))]
    triv = frozenset([idt])
    seen = {triv: ()}
    queue = [(triv, ())]
    while queue:
        sub, gens = queue.pop(0)
        for x in ppow:
            if x in sub:
                continue
            newgens = gens + (x,)
            grown = closure_gens(degree, newgens)
            if grown not in seen:
                seen[grown] = newgens
                queue.append((grown, newgens))
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def is_normal_set(elements, sub):
    gens = greedy_gens(len(next(iter(sub))), elements)
    return all(conj(x, g) in sub for x in sub for g in gens)


def join_sets(degree, parts):
    seed = set()
    for p in parts:
        seed |= p
    return closure_gens(degree, sorted(seed))


def critical_pairs(degree, elements):
    """(A, B) with B the join of all normals properly below A, kept if B < A."""
    normals = normal_subgroups(degree, elements)
    out = []
    for a in normals:
        if len(a) == 1:
            continue
        inside = [n for n in normals if len(n) < len(a) and n <= a]
        b = join_sets(degree, inside) if inside else frozenset([identity(degree)])
        if len(b) < len(a):
            out.append((a, b))
    return out


def maximal_normals(degree, elements):
    normals = [n for n in normal_subgroups(degree, elements) if len(n) < len(elements)]
    return [n for n in normals if not any(n < m for m in normals)]


def minimal_normals(degree, elements):
    normals = [n for n in normal_subgroups(degree, elements) if len(n) > 1]
    return [n for n in normals if not any(m < n for m in normals)]


SIMPLE_ORDER_NAMES = {60: "A5", 168: "PSL(2,7)", 360: "A6", 504: "PSL(2,8)"}


def composition_factor_names(degree, elements):
    """Sorted factor labels from a descending chain of maximal normals."""
    out = []
    g = frozenset(elements)
    while len(g) > 1:
        candidates = [n for n in normal_subgroups(degree, g) if len(n) < len(g)]
        n = max(candidates, key=lambda s: (len(s), sorted(s)))
        q = len(g) // len(n)
        out.append(f"C{q}" if is_prime(q) else SIMPLE_ORDER_NAMES[q])
        g = n
    return tuple(sorted(out))


def center_set(degree, elements):
    gens = greedy_gens(degree, elements)
    return frozenset(z for z in elements if all(mul(z, g) == mul(g, z) for g in gens))


def centralizer_of_element(elements, x):
    return frozenset(g for g in elements if mul(g, x) == mul(x, g))


def product_size(degree, a, b):
    return len(a) * len(b) // len(a & b)


def is_cyclic(elements):
    return any(order_of(x) == len(elements) for x in elements)


def central_decomposition_verdict(degree, elements):
    """(decomposable, witness-or-None); witness is a pair of element sets.

    Complete by the same three-way argument the package uses, but computed on
    raw sets: abelian groups split unless they are cyclic of prime power
    order; otherwise a factor containing the whole center is found against
    the normal lattice, or both factors contain the center and each is its
    partner's centralizer, so scanning the intersection closure of element
    centralizers finds one.
    """
    elements = frozenset(elements)
    n = len(elements)
    gens = greedy_gens(degree, elements)
    abelian = all(mul(a, b) == mul(b, a) for a in gens for b in gens)
    if abelian:
        if n == 1 or (is_prime_power(n) and is_cyclic(elements)):
            return False, None
        primes = set()
        m = n
        p = 2
        while p * p <= m:
            while m % p == 0:
                primes.add(p)
                m //= p
            p += 1
        if m > 1:
            primes.add(m)
        if len(primes) > 1:
            p = min(primes)
            part = frozenset(x for x in elements if _p_part_only(order_of(x), p))
            rest = frozenset(x for x in elements if order_of(x) % p != 0 or order_of(x) == 1)
            return True, (part, rest)
        subs = [s for s in all_subgroups(degree, elements) if 1 < len(s) < n]
        for a in subs:
            for b in subs:
                if join_sets(degree, [a, b]) == elements:
                    return True, (a, b)
        return False, None
    z = center_set(degree, elements)
    for nsub in normal_subgroups(degree, elements):
        if len(nsub) < n and product_size(degree, nsub, z) == n:
            return True, (nsub, z)
    reps = [min(c) for c in conj_classes(degree, elements)]
    family = set()
    for r in reps:
        if r not in z:
            family.add(centralizer_of_element(elements, r))
    while True:
        fresh = set()
        for a in family:
            for b in family:
                c = a & b
                if c not in family:
                    fresh.add(c)
        if not fresh:
            break
        family |= fresh
    for h in sorted(family, key=lambda s: (len(s), sorted(s))):
        if h <= z or len(h) == n:
            continue
        hgens = greedy_gens(degree, h)
        k = elements
        for x in hgens:
            k = k & centralizer_of_element(elements, x)
        if len(k) < n and product_size(degree, h, k) == n:
            return True, (h, frozenset(k))
    return False, None


def _p_part_only(order, p):
    while order % p == 0:
        order //= p
    return order == 1


def central_split_pairs_exhaustive(degree, elements):
    """All unordered pairs (A, B) of proper subgroups with [A,B]=1 and <A,B>=G.

    Pure pair scan over the full subgroup list; only for small groups.
    """
    subs = [s for s in all_subgroups(degree, elements) if 1 < len(s) < len(elements)]
    out = []
    for i, a in enumerate(subs):
        for b in subs[i:]:
            if all(mul(x, y) == mul(y, x) for x in a for y in b):
                if join_sets(degree, [a, b]) == elements:
                    out.append((a, b))
    return out


def section_centralizer(degree, elements, a_set, b_set):
    """{g : [a, g] in B for every a in A}, tested against all of A."""
    return frozenset(
        g for g in elements if all(comm(x, g) in b_set for x in a_set)
    )


def commutator_set(degree, a_set, b_set):
    """<[a,b] over all pairs>; with full element ranges no closure chase is needed."""
    return closure_gens(degree, sorted({comm(x, y) for x in a_set for y in b_set}))


def e_p_set(degree, elements, p):
    """Closure of every commutator and every p-th power, straight from the definition."""
    seeds = {comm(x, y) for x in elements for y in elements}
    for x in elements:
        y = identity(degree)
        for _ in range(p):
            y = mul(y, x)
        seeds.add(y)
    return closure_gens(degree, sorted(seeds))


def is_nilpotent_set(degree, elements):
    current = frozenset(elements)
    while True:
        nxt = commutator_set(degree, current, elements)
        if nxt == current:
            return len(current) == 1
        current = nxt
        if len(current) == 1:
            return True


def conjugate_subgroups(elements, sub):
    """The set {sub^t : t in the group}, each conjugate as a frozenset."""
    return {frozenset(conj(x, t) for x in sub) for t in elements}


def has_commuting_conjugates(elements, sub):
    """sub is non-normal and any two of its distinct conjugates commute elementwise."""
    family = list(conjugate_subgroups(elements, sub))
    return len(family) > 1 and all(
        mul(x, y) == mul(y, x)
        for i, a in enumerate(family)
        for b in family[i + 1 :]
        for x in a
        for y in b
    )
