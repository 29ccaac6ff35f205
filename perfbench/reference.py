"""Reference computations the benchmark checks ficat's outputs against.

Everything here is written from the mathematics, with no import of ficat:
closed-form counts (derangements, group orders, hom-set sizes, surjective
matrices), matrix arithmetic over Z/N on plain row lists, the column-adapted
predicate, and forward elimination over a prime field.

Matrices are lists of rows of integers.  Z/N stands for the ring of integers
modulo N; its local factors are the prime powers p^k exactly dividing N, and
the image of x in the factor Z/p^k is x mod p^k.
"""

import math


# ---------------------------------------------------------------------------
# numbers
# ---------------------------------------------------------------------------

def derangements(n):
    """d_n, the number of fixed-point-free permutations of n points."""
    a, b = 1, 0  # d_0, d_1
    if n == 0:
        return a
    for k in range(2, n + 1):
        a, b = b, (k - 1) * (a + b)
    return b


def prime_powers(n):
    """[(p, k), ...] with n = prod p^k, primes increasing."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def unit_count(n):
    """|(Z/n)^x|, Euler's phi."""
    out = 1
    for p, k in prime_powers(n):
        out *= (p - 1) * p ** (k - 1)
    return out


def gl_order(n_mod, rank):
    """|GL_rank(Z/n_mod)| = prod over p^k of p^((k-1) r^2) prod_{i<r} (p^r - p^i)."""
    out = 1
    for p, k in prime_powers(n_mod):
        out *= p ** ((k - 1) * rank * rank)
        for i in range(rank):
            out *= p ** rank - p ** i
    return out


def sp_order(n_mod, rank):
    """|Sp_2rank(Z/n_mod)| = prod over p^k of
    p^((k-1)(2r^2 + r)) p^(r^2) prod_{i=1..r} (p^(2i) - 1)."""
    out = 1
    for p, k in prime_powers(n_mod):
        out *= p ** ((k - 1) * (2 * rank * rank + rank)) * p ** (rank * rank)
        for i in range(1, rank + 1):
            out *= p ** (2 * i) - 1
    return out


def surjection_count(n_mod, rows, cols):
    """Number of surjective maps (Z/n_mod)^cols -> (Z/n_mod)^rows.

    Over Z/p^k a matrix is onto exactly when it is onto modulo p, and over
    F_p there are prod_{i<rows} (p^cols - p^i) matrices of full row rank.
    """
    if rows > cols:
        return 0
    out = 1
    for p, k in prime_powers(n_mod):
        out *= p ** ((k - 1) * rows * cols)
        for i in range(rows):
            out *= p ** cols - p ** i
    return out


# ---------------------------------------------------------------------------
# hom-set sizes from |Hom(r, n)| * |Aut(n - r)| = |Aut(n)|
# ---------------------------------------------------------------------------

class HomCounts:
    """Closed-form hom-set sizes of one category.

    kind is "FI", "VIC", "OVIC" or "SI"; n_mod the modulus of the ring Z/N
    and units the size of the unit subgroup U for VIC (None for all units).
    In the complemented categories Aut(n) acts transitively on Hom(r, n)
    with stabilizer Aut(n - r), so |Hom(r, n)| = |Aut(n)| / |Aut(n - r)|.
    OVIC keeps one morphism per Aut(r)-orbit of VIC, so its hom sets are
    those of VIC divided by |GL_r|.
    """

    def __init__(self, kind, n_mod=None, units=None):
        self.kind = kind
        self.n_mod = n_mod
        self.units = units

    def aut(self, n):
        if self.kind == "FI":
            return math.factorial(n)
        if self.kind == "SI":
            return sp_order(self.n_mod, n)
        order = gl_order(self.n_mod, n)
        if self.kind == "VIC" and self.units is not None and n > 0:
            total_units = unit_count(self.n_mod)
            if (order * self.units) % total_units:
                raise ValueError("unit subgroup order does not divide the unit group")
            order = order * self.units // total_units
        return order

    def hom(self, r, n):
        if r > n:
            return 0
        if self.kind == "OVIC":
            return gl_order(self.n_mod, n) // (gl_order(self.n_mod, n - r) * gl_order(self.n_mod, r))
        return self.aut(n) // self.aut(n - r)


def axiom_counters(hom, max_rank, complemented, symmetric,
                   assoc_cap, assoc_samples, pair_cap=200):
    """The counters an all-passing axiom report over ranks <= max_rank holds.

    hom(m, n) gives hom-set sizes.  The suite checks every enumerated
    morphism for the unit laws, mono-ness (postcomposition by every
    non-endomorphism is injective on all shorter homs), sum injectivity
    and complements; associativity checks every triple of a signature up
    to assoc_cap triples and assoc_samples sampled triples beyond; the
    monoidal and symmetry laws check every tuple up to pair_cap tuples and
    pair_cap samples beyond.
    """
    r = max_rank
    h = hom
    out = {}
    out["identity.checked"] = sum(h(m, n) for n in range(r + 1) for m in range(r + 1))
    sig = exh = smp = chk = 0
    for n in range(r + 1):
        for m in range(n + 1):
            for l in range(m + 1):
                for k in range(l + 1):
                    total = h(k, l) * h(l, m) * h(m, n)
                    if total == 0:
                        continue
                    sig += 1
                    if total <= assoc_cap:
                        exh += 1
                        chk += total
                    else:
                        smp += 1
                        chk += assoc_samples
    out["associativity.signatures"] = sig
    out["associativity.exhaustive_signatures"] = exh
    out["associativity.sampled_signatures"] = smp
    out["associativity.checked"] = chk
    mono = skipped = 0
    for n in range(r + 1):
        for m in range(n + 1):
            inner = sum(h(l, m) for l in range(m + 1))
            outer = h(m, n)
            if m == n:
                skipped += outer
                outer = 0
            mono += outer * inner
    out["mono.checked"] = mono
    out["mono.iso_skipped"] = skipped
    if complemented:
        out["sum_injective.checked"] = sum(
            (m + 1) * h(m, n) for n in range(r + 1) for m in range(n + 1)
        )
        out["transitivity.pairs"] = r * (r + 1) // 2
        out["complement_exists.checked"] = sum(h(m, n) for n in range(r + 1) for m in range(n + 1))
        out["complement_unique.pairs"] = sum(n + 1 for n in range(r + 1))
        mon = 0
        for a in range(r + 1):
            for b in range(r + 1 - a):
                for a0 in range(a + 1):
                    for b0 in range(b + 1):
                        for a1 in range(a0 + 1):
                            for b1 in range(b0 + 1):
                                total = h(a0, a) * h(b0, b) * h(a1, a0) * h(b1, b0)
                                if total:
                                    mon += min(total, pair_cap)
        out["monoidal.checked"] = mon
    if symmetric:
        sym = 0
        for a in range(r + 1):
            for b in range(r + 1 - a):
                for a0 in range(a + 1):
                    for b0 in range(b + 1):
                        pairs = h(a0, a) * h(b0, b)
                        if pairs:
                            sym += min(pairs, pair_cap)
        out["symmetry.checked"] = sym
    return out


# ---------------------------------------------------------------------------
# matrices over Z/N
# ---------------------------------------------------------------------------

def mat_mul(a, b, n_mod):
    """a * b over Z/n_mod; a is r x k, b is k x c, as row lists."""
    if not a:
        return []
    k = len(a[0])
    if len(b) != k:
        raise ValueError("inner dimensions disagree: %d vs %d" % (k, len(b)))
    c = len(b[0]) if b else 0
    return [
        [sum(row[t] * b[t][j] for t in range(k)) % n_mod for j in range(c)]
        for row in a
    ]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a, cols=None):
    if not a:
        return [[] for _ in range(cols or 0)]
    return [list(col) for col in zip(*a)]


def reduce_mat(a, n_mod):
    return [[x % n_mod for x in row] for row in a]


def _adapted_local(a, p, q):
    """Column-adapted over Z/q with q = p^k: for each row i there is a
    first column equal to e_i, at s_i; every entry of row i left of s_i is
    divisible by p; and s_1 < s_2 < ..."""
    d = len(a)
    cols = len(a[0]) if d else 0
    prev = -1
    for i in range(d):
        target = [1 if t == i else 0 for t in range(d)]
        s = None
        for c in range(cols):
            if [a[t][c] % q for t in range(d)] == target:
                s = c
                break
        if s is None or s <= prev:
            return False
        if any(a[i][c] % p for c in range(s)):
            return False
        prev = s
    return True


def column_adapted(a, n_mod):
    """Column-adapted in every local factor Z/p^k of Z/n_mod."""
    return all(_adapted_local(a, p, p ** k) for p, k in prime_powers(n_mod))


def row_adapted(a, n_mod, cols):
    """Column-adapted transpose; cols is the column count of a (a may be empty)."""
    return column_adapted(transpose(a, cols), n_mod)


def is_invertible(a, n_mod):
    """A square matrix over Z/n_mod is invertible exactly when it has full
    rank modulo every prime dividing n_mod."""
    n = len(a)
    if any(len(row) != n for row in a):
        return False
    return all(rank_mod_p(a, p) == n for p, _ in prime_powers(n_mod))


def det(a, n_mod):
    """Determinant over Z/n_mod by the Leibniz formula (small sizes only)."""
    n = len(a)
    total = 0
    for perm in _permutations(n):
        sign = 1
        seen = [False] * n
        for i in range(n):  # parity from the cycle decomposition
            if not seen[i]:
                j, length = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total % n_mod


def _permutations(n):
    if n == 0:
        yield ()
        return
    for rest in _permutations(n - 1):
        for pos in range(n):
            yield rest[:pos] + (n - 1,) + rest[pos:]


# ---------------------------------------------------------------------------
# forward elimination over F_p
# ---------------------------------------------------------------------------

def rank_mod_p(rows, p):
    """Rank over F_p of a dense matrix given as row lists."""
    return sparse_rank([{j: x for j, x in enumerate(row) if x % p} for row in rows], p)


def sparse_rank(vectors, p):
    """Rank over F_p of the span of sparse vectors {index: value}.

    Forward elimination only: each vector is reduced against the pivots
    found so far (keyed by their least index) and becomes a new pivot when
    something is left.  Over F_2 vectors are packed into integers.
    """
    if p == 2:
        pivots = {}
        for vec in vectors:
            r = 0
            for j, x in vec.items():
                if x % 2:
                    r ^= 1 << j
            while r:
                low = (r & -r).bit_length() - 1
                piv = pivots.get(low)
                if piv is None:
                    pivots[low] = r
                    break
                r ^= piv
        return len(pivots)
    pivots = {}
    for vec in vectors:
        r = {j: x % p for j, x in vec.items() if x % p}
        while r:
            low = min(r)
            piv = pivots.get(low)
            if piv is None:
                inv = pow(r[low], p - 2, p)
                pivots[low] = {j: x * inv % p for j, x in r.items()}
                break
            c = r[low]
            for j, x in piv.items():
                v = (r.get(j, 0) - c * x) % p
                if v:
                    r[j] = v
                else:
                    r.pop(j, None)
    return len(pivots)
