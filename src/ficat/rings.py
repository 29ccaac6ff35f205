"""Finite commutative rings with explicit element arithmetic.

A ring spec is either "Z/n" (n >= 2) or a product "Z/n1 x Z/n2 x ..." with
total size at most 4096.  Elements are integers 0..size-1; products are
encoded in mixed radix with the first factor most significant.  The local
factors are read off the moduli: each prime power q exactly dividing a
modulus gives a factor Z/q, split off by the idempotent that is 1 mod q and 0
elsewhere (CRT).  That every element is recovered from its projections is
checked on the spot.
"""

import math
import re
from functools import lru_cache

from .errors import InvariantViolation, PreconditionError

MAX_RING_SIZE = 4096
_FACTOR_RE = re.compile(r"^Z/(\d+)$")


def _parse_spec(spec):
    if not isinstance(spec, str):
        raise PreconditionError("ring spec must be a string like 'Z/4' or 'Z/2 x Z/3'")
    parts = [p.strip() for p in spec.split("x")]
    moduli = []
    for part in parts:
        m = _FACTOR_RE.match(part)
        if not m:
            raise PreconditionError("bad ring spec %r (factor %r)" % (spec, part))
        n = int(m.group(1))
        if n < 2:
            raise PreconditionError("ring factors need modulus >= 2, got %d" % n)
        moduli.append(n)
    size = 1
    for n in moduli:
        size *= n
    if size > MAX_RING_SIZE:
        raise PreconditionError(
            "ring size %d exceeds the supported maximum %d" % (size, MAX_RING_SIZE)
        )
    return tuple(moduli)


def smallest_prime(n):
    """Smallest prime divisor of n >= 2."""
    if n % 2 == 0:
        return 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            return p
        p += 2
    return n


def prime_power(size):
    """(p, k) with size = p^k, the size of a local ring."""
    p = smallest_prime(size)
    k = 0
    s = size
    while s > 1:
        s //= p
        k += 1
    if p ** k != size:
        raise InvariantViolation("local factor size %d is not a prime power" % size)
    return p, k


class FiniteRing:
    """A finite commutative ring, elements indexed 0..size-1.

    residues[c][x] is the residue of element x modulo moduli[c].
    """

    __slots__ = (
        "spec",
        "moduli",
        "size",
        "char",
        "zero",
        "one",
        "add",
        "mul",
        "neg",
        "residues",
        "_digits",
        "_strides",
        "_units",
        "_local",
        "_inv",
    )

    def __init__(self, moduli):
        self.moduli = tuple(moduli)
        self.spec = " x ".join("Z/%d" % n for n in self.moduli)
        size = 1
        for n in self.moduli:
            size *= n
        self.size = size
        self.char = math.lcm(*self.moduli)
        self.zero = 0
        self._units = None
        self._local = None
        self._inv = None
        strides = []
        acc = 1
        for n in reversed(self.moduli):
            strides.append(acc)
            acc *= n
        self._strides = tuple(reversed(strides))
        self._digits = tuple(
            tuple((x // s) % n for n, s in zip(self.moduli, self._strides))
            for x in range(size)
        )
        self.residues = tuple(zip(*self._digits))
        self.one = self.encode((1,) * len(self.moduli))
        if len(self.moduli) == 1:
            n = self.moduli[0]
            self.add = lambda a, b, n=n: (a + b) % n
            self.mul = lambda a, b, n=n: (a * b) % n
            self.neg = lambda a, n=n: (-a) % n
        elif size <= 64:
            # small products get full operation tables
            add_t = []
            mul_t = []
            neg_t = []
            for a in range(size):
                da = self._digits[a]
                neg_t.append(self.encode(tuple((-x) % n for x, n in zip(da, self.moduli))))
                for b in range(size):
                    db = self._digits[b]
                    add_t.append(
                        self.encode(tuple((x + y) % n for x, y, n in zip(da, db, self.moduli)))
                    )
                    mul_t.append(
                        self.encode(tuple((x * y) % n for x, y, n in zip(da, db, self.moduli)))
                    )
            add_t = tuple(add_t)
            mul_t = tuple(mul_t)
            neg_t = tuple(neg_t)
            self.add = lambda a, b, t=add_t, s=size: t[a * s + b]
            self.mul = lambda a, b, t=mul_t, s=size: t[a * s + b]
            self.neg = lambda a, t=neg_t: t[a]
        else:
            digits = self._digits
            moduli = self.moduli
            encode = self.encode
            self.add = lambda a, b: encode(
                tuple((x + y) % n for x, y, n in zip(digits[a], digits[b], moduli))
            )
            self.mul = lambda a, b: encode(
                tuple((x * y) % n for x, y, n in zip(digits[a], digits[b], moduli))
            )
            self.neg = lambda a: encode(tuple((-x) % n for x, n in zip(digits[a], moduli)))

    # ----- representation helpers -----

    def encode(self, digits):
        """Mixed-radix tuple -> element index (first factor most significant)."""
        x = 0
        for d, s in zip(digits, self._strides):
            x += d * s
        return x

    def check_element(self, x):
        if not isinstance(x, int) or not (0 <= x < self.size):
            raise PreconditionError(
                "%r is not an element index of %s (expected 0..%d)" % (x, self.spec, self.size - 1)
            )
        return x

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def reduce_int(self, t):
        """Image of the integer t under the unique map Z -> R."""
        return self.encode(tuple(t % n for n in self.moduli))

    @property
    def neg_one(self):
        return self.neg(self.one)

    # ----- units -----

    def inverse(self, x):
        """Multiplicative inverse of x, or None when x is not a unit."""
        self.check_element(x)
        if self._inv is None:
            self._inv = [None] * self.size
            for y, digs in enumerate(self._digits):
                out = []
                for d, n in zip(digs, self.moduli):
                    try:
                        out.append(pow(d, -1, n))
                    except ValueError:
                        out = None
                        break
                if out is not None:
                    self._inv[y] = self.encode(tuple(out))
        return self._inv[x]

    def is_unit(self, x):
        return self.inverse(x) is not None

    def units(self):
        if self._units is None:
            self._units = tuple(x for x in range(self.size) if self.inverse(x) is not None)
        return self._units

    def nonunits(self):
        return tuple(x for x in range(self.size) if self.inverse(x) is None)

    # ----- local structure -----

    @property
    def local(self):
        if self._local is None:
            self._local = _compute_local(self)
        return self._local

    @property
    def is_local(self):
        return len(self.local.factors) == 1

    def __repr__(self):
        return "FiniteRing(%r)" % self.spec


class LocalDecomposition:
    """R = R_1 x ... x R_k, one local factor Z/q per prime power q exactly
    dividing a modulus of R, ordered by (prime, q, idempotent): e.g.
    Z/6 -> [Z/2, Z/3] and Z/12 -> [Z/4, Z/3]."""

    __slots__ = ("ring", "idempotents", "factors", "_proj", "_lift_elem")

    def __init__(self, ring, idempotents, factors, proj, lift_elem):
        self.ring = ring
        self.idempotents = idempotents  # primitive idempotents, one per factor
        self.factors = factors  # tuple of FiniteRing (each Z/p^k)
        self._proj = proj  # per factor: list over parent elements of factor index
        self._lift_elem = lift_elem  # per factor: list over factor elements of parent element

    def project(self, x):
        """Parent element -> tuple of factor elements."""
        return tuple(p[x] for p in self._proj)

    def lift(self, comps):
        """Tuple of factor elements -> parent element (CRT)."""
        ring = self.ring
        acc = ring.zero
        for i, c in enumerate(comps):
            acc = ring.add(acc, self._lift_elem[i][c])
        return acc


def _compute_local(ring):
    """One factor Z/q per prime power q exactly dividing a modulus n of the
    ring: its idempotent e is 1 mod q and 0 mod n/q at that modulus and 0 at
    every other, it projects x to its residue mod q and lifts t to t*e."""
    entries = []
    for n, res, stride in zip(ring.moduli, ring.residues, ring._strides):
        rest = n
        while rest > 1:
            p = smallest_prime(rest)
            q = 1
            while rest % p == 0:
                rest //= p
                q *= p
            e = (n // q) * pow(n // q, -1, q) % n  # the idempotent's residue mod n
            lift = [t * e % n * stride for t in range(q)]
            entries.append((p, q, e * stride, make_ring("Z/%d" % q), [x % q for x in res], lift))
    entries.sort(key=lambda ent: ent[:3])
    _, _, idempotents, factors, proj, lift_elem = zip(*entries)
    dec = LocalDecomposition(ring, idempotents, factors, proj, lift_elem)
    if any(dec.lift(dec.project(x)) != x for x in range(ring.size)):
        raise InvariantViolation("local factors of %s do not recombine to the ring" % ring.spec)
    return dec


@lru_cache(maxsize=None)
def _make_ring_cached(moduli):
    return FiniteRing(moduli)


def make_ring(spec):
    """Build (or fetch) the finite ring named by spec, e.g. "Z/4" or "Z/2 x Z/3"."""
    return _make_ring_cached(_parse_spec(spec))

