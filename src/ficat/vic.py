"""VIC(R, U) and OVIC(R): split injections of free modules over a finite ring.

A morphism R^m -> R^n is a pair (f, fp) of an n x m matrix and a chosen left
inverse fp (m x n); at equal ranks the determinant of f must lie in the unit
subgroup U.  OVIC(R) is the subcategory of pairs whose splitting fp is
column-adapted; every VIC morphism factors uniquely as an OVIC morphism after
an automorphism of the source, which is the normal form used throughout.
GL_n(R) is a GlTable: its matrices' codes in one sorted array, read as Mats.

Composition convention: compose(g, f) means "g after f", so the components
multiply as (g.f * f.f, f.fp * g.fp).
"""

from array import array
from bisect import bisect_left
from collections.abc import Sequence
from itertools import combinations, groupby, product as iproduct

from .catcore import Category, check_composable
from .errors import InvariantViolation, PreconditionError, charge
from .matrices import (
    Mat,
    _local_inverse,
    block_diag,
    column_adapted,
    det,
    factor_surjection,
    hstack,
    inverse,
    kernel_basis,
    lift_mats,
    mul_cols_data,
    mul_rows_data,
    try_inverse,
)
from .rings import prime_power


class UnitSubgroup:
    """A subgroup of the units of a finite ring."""

    __slots__ = ("ring", "elements")

    def __init__(self, ring, elements=None):
        if elements is None:
            elements = ring.units()
        elems = frozenset(elements)
        for x in elems:
            ring.check_element(x)
            if not ring.is_unit(x):
                raise PreconditionError("%r is not a unit of %s" % (x, ring.spec))
        if ring.one not in elems:
            raise PreconditionError("unit subgroup must contain 1")
        for a in elems:
            if ring.inverse(a) not in elems:
                raise PreconditionError("unit subgroup not closed under inverse at %r" % (a,))
            for b in elems:
                if ring.mul(a, b) not in elems:
                    raise PreconditionError("unit subgroup not closed under product at %r * %r" % (a, b))
        self.ring = ring
        self.elements = elems

    @property
    def is_full(self):
        return len(self.elements) == len(self.ring.units())

    def __contains__(self, x):
        return x in self.elements

    def __eq__(self, other):
        return (
            isinstance(other, UnitSubgroup)
            and other.ring == self.ring
            and other.elements == self.elements
        )

    def __hash__(self):
        return hash((self.ring.spec, self.elements))

    def __repr__(self):
        if self.is_full:
            return "UnitSubgroup(%s, full)" % self.ring.spec
        return "UnitSubgroup(%s, %s)" % (self.ring.spec, sorted(self.elements))


class VicMorphism:
    """A split injection: f (n x m) with chosen left inverse fp (m x n)."""

    __slots__ = ("f", "fp")

    def __init__(self, f, fp, check=True):
        if f.ring != fp.ring:
            raise PreconditionError("f and fp live over different rings")
        if fp.rows != f.cols or fp.cols != f.rows:
            raise PreconditionError(
                "splitting shape mismatch: f is %dx%d, fp is %dx%d" % (f.rows, f.cols, fp.rows, fp.cols)
            )
        if check and fp.mul(f) != Mat.identity(f.ring, f.cols):
            raise PreconditionError("fp is not a left inverse of f")
        self.f = f
        self.fp = fp

    @property
    def ring(self):
        return self.f.ring

    @property
    def src(self):
        return self.f.cols

    @property
    def dst(self):
        return self.f.rows

    def __eq__(self, other):
        return isinstance(other, VicMorphism) and other.f == self.f and other.fp == self.fp

    def __hash__(self):
        return hash(("VIC", self.f, self.fp))

    def __repr__(self):
        return "VicMorphism(%d -> %d over %s, f=%s, fp=%s)" % (
            self.src,
            self.dst,
            self.ring.spec,
            list(self.f.to_rows()),
            list(self.fp.to_rows()),
        )


class OvicMorphism(VicMorphism):
    """A VicMorphism whose splitting fp is column-adapted; caches the profile,
    and wporder fills its word encoding and total-order key on first use."""

    __slots__ = ("profile", "words", "total_key")

    def __init__(self, f, fp, check=True):
        super().__init__(f, fp, check=check)
        prof = column_adapted(fp)
        if prof is None:
            raise PreconditionError("splitting is not column-adapted")
        self.profile = prof


# ---------------------------------------------------------------------------
# GL tables and counts
# ---------------------------------------------------------------------------

_GL_LOCAL = {}


class GlTable(Sequence):
    """GL_n(R) as a read-only sequence of (mat, inverse, det) triples sorted by
    mat.data, in three arrays: codes, the base-|R| numbers the row-major
    entries spell; inv, the index of each inverse; dets.  Item i is built on
    read from rows (R^n in lexicographic order) and never cached, so a caller
    that walks a table often holds list(table).  A code fills a signed 64-bit
    entry, so |R|^(n^2) < 2^63: a wider table is larger than any budget (over
    a local ring it has more than 2^61 elements)."""

    __slots__ = ("ring", "n", "codes", "inv", "dets", "rows")

    def __init__(self, ring, n, codes, inv, dets, rows):
        self.ring, self.n, self.codes, self.inv, self.dets, self.rows = ring, n, codes, inv, dets, rows

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self.codes)))))
        return self.mat(i), self.mat(self.inv[i]), self.dets[i]

    def mat(self, i):
        """Element i as a Mat, its rows looked up in rows."""
        code, rows, width, data = self.codes[i], self.rows, len(self.rows), ()
        for _ in range(self.n):
            code, r = divmod(code, width)
            data = rows[r] + data
        return Mat(self.ring, self.n, self.n, data)

    def code(self, data):
        """The base-|R| number that the entries of data spell."""
        code = 0
        for x in data:
            code = code * self.ring.size + x
        return code

    def position(self, code):
        """The index of the matrix with this code."""
        j = bisect_left(self.codes, code)
        if j == len(self.codes) or self.codes[j] != code:
            raise InvariantViolation("GL_%d(%s) misses the matrix with code %d" % (self.n, self.ring.spec, code))
        return j


def _gl_local(ring, n):
    """All invertible n x n matrices over a local ring Z/p^k, as a GlTable.

    A square matrix is invertible exactly when its rows are independent mod p,
    so the rows are chosen in lexicographic order, each outside the span over
    F_p of the rows before it; the codes come out sorted, in runs that share
    their first n - 1 rows.  Only the first matrix g0 of a run is inverted by
    elimination.  Any other g in it is g0 + e_n u^T, with u the difference of
    the last rows, so with B = g0^-1 and beta = 1 + u^T B e_n (Sherman-Morrison,
    and the matrix determinant lemma)
        g^-1 = B - (B e_n)(u^T B) / beta,    det g = beta det g0.
    g^-1 is found by bisection on its code.  Inverses come in pairs: one
    inverse and one det fill the entries of both g and g^-1.
    """
    if (ring.spec, n) in _GL_LOCAL:
        return _GL_LOCAL[ring.spec, n]
    q = ring.size
    p, _ = prime_power(q)
    rows = list(iproduct(range(q), repeat=n))
    width = len(rows)
    residues = [tuple(x % p for x in v) for v in rows]
    codes = array("q", [0] if n == 0 else [])  # GL_0 is the one empty matrix

    def extend(prefix, span, depth):
        for r, res in enumerate(residues):
            if res in span:
                continue
            if depth == 1:
                codes.append(prefix + r)
            else:
                wider = {tuple((a + t * b) % p for a, b in zip(s, res)) for s in span for t in range(p)}
                extend((prefix + r) * width, wider, depth - 1)

    if n:
        extend(0, {(0,) * n}, n)
    if len(codes) != _gl_count_local(ring, n):
        raise InvariantViolation("GL_%d(%s) enumeration disagrees with the order formula" % (n, ring.spec))
    table = GlTable(ring, n, codes, array("q", [-1]) * len(codes), array("q", [0]) * len(codes), rows)
    inv, dets = table.inv, table.dets

    def pair(i, inv_data, d):
        j = table.position(table.code(inv_data))
        inv[i], dets[i] = j, d
        if inv[j] < 0:
            inv[j], dets[j] = i, ring.inverse(d)

    for _, run in groupby(range(len(codes)), key=lambda i: codes[i] // width):
        i0 = next(run)
        if inv[i0] < 0:
            g0 = table.mat(i0)
            b = _local_inverse(g0)
            if b is None:
                raise InvariantViolation("GL_%d(%s) misses the inverse of %r" % (n, ring.spec, g0))
            pair(i0, b.data, det(g0))
        B, v0, d0 = table.mat(inv[i0]).data, rows[codes[i0] % width], dets[i0]
        brows = [B[t * n:(t + 1) * n] for t in range(n)]
        last = [row[-1] for row in brows]  # B e_n
        for i in run:
            if inv[i] >= 0:
                continue
            uB = [0] * n  # u^T B
            for x, y, row in zip(rows[codes[i] % width], v0, brows):
                if x != y:
                    uB = [s + (x - y) * z for s, z in zip(uB, row)]
            beta = (1 + uB[-1]) % q
            binv = ring.inverse(beta)
            if binv is None:
                raise InvariantViolation("GL_%d(%s): rank-one update of %r has no unit factor"
                                         % (n, ring.spec, table.mat(i)))
            w = [z * binv for z in uB]
            pair(i, [(x - c * z) % q for row, c in zip(brows, last) for x, z in zip(row, w)], d0 * beta % q)
    _GL_LOCAL[ring.spec, n] = table
    return table


def _gl_count_local(ring, n):
    """|GL_n(Z/p^k)| = p^((k-1) n^2) * prod_i (p^n - p^i)."""
    if n == 0:
        return 1
    p, k = prime_power(ring.size)
    base = 1
    for i in range(n):
        base *= p**n - p**i
    return p ** ((k - 1) * n * n) * base


def gl_order(ring, n):
    """|GL_n(R)|, as the product of the local orders."""
    if n < 0:
        raise PreconditionError("rank must be non-negative")
    out = 1
    for rf in ring.local.factors:
        out *= _gl_count_local(rf, n)
    return out


def gl_pairs(ring, n, budget=None):
    """All of GL_n(R) as a GlTable; over a product ring its codes, inverses
    and dets are CRT-lifted from the local tables."""
    count = gl_order(ring, n)
    charge(count, budget, "GL_%d(%s) enumeration" % (n, ring.spec))
    dec = ring.local
    locs = [_gl_local(rf, n) for rf in dec.factors]
    if dec.factors[0] is ring:
        return locs[0]
    table = GlTable(ring, n, array("q"), array("q"), array("q"), list(iproduct(range(ring.size), repeat=n)))
    lifted = sorted((table.code(map(dec.lift, zip(*[c[0].data for c in combo]))),
                     table.code(map(dec.lift, zip(*[c[1].data for c in combo]))),
                     dec.lift(tuple(c[2] for c in combo))) for combo in iproduct(*locs))
    table.codes.extend(e[0] for e in lifted)
    table.dets.extend(e[2] for e in lifted)
    table.inv.extend(table.position(e[1]) for e in lifted)
    return table


# ---------------------------------------------------------------------------
# OVIC enumeration and counting
# ---------------------------------------------------------------------------

_OVIC_LOCAL = {}


def _adapted_count_local(ring, m, n):
    """Number of column-adapted m x n matrices over a local ring."""
    if m > n:
        return 0
    nu = len(ring.nonunits())
    sz = ring.size
    total = 0
    for S in combinations(range(n), m):
        sset = set(S)
        cols = 1
        for j in range(n):
            if j in sset:
                continue
            a = sum(1 for s in S if s > j)
            cols *= (nu**a) * (sz ** (m - a))
        total += cols
    return total


def ovic_count_local(ring, m, n):
    if m > n:
        return 0
    return _adapted_count_local(ring, m, n) * (ring.size ** (m * (n - m)))


def ovic_count(ring, m, n):
    out = 1
    for rf in ring.local.factors:
        out *= ovic_count_local(rf, m, n)
    return out


def _complete_dependent(ring, fp, S, nonpiv, free_rows):
    """The unique f with fp * f = I once the free rows of f are chosen.

    fp is column-adapted with pivot columns S; the rows of f away from S are
    the free rows, and row S[i] is forced to e_i - sum_t fp[i,t] * (row t).
    """
    m, n = fp.rows, fp.cols
    radd, rmul, rneg = ring.add, ring.mul, ring.neg
    rows = [None] * n
    for k, p in enumerate(nonpiv):
        rows[p] = free_rows[k]
    for i, s in enumerate(S):
        row = [ring.one if j == i else ring.zero for j in range(m)]
        for t in nonpiv:
            c = fp.entry(i, t)
            if c:
                frow = rows[t]
                for j in range(m):
                    if frow[j]:
                        row[j] = radd(row[j], rneg(rmul(c, frow[j])))
        rows[s] = tuple(row)
    return Mat(ring, n, m, tuple(x for r in rows for x in r))


def _ovic_local_list(ring, m, n):
    """All OVIC morphism components (fp, f) over a local ring, unsorted; one
    Mat per distinct fp and per distinct f."""
    key = (ring.spec, m, n)
    got = _OVIC_LOCAL.get(key)
    if got is not None:
        return got
    out = []
    fs = {}
    if m <= n:
        elems = range(ring.size)
        nonunits = ring.nonunits()
        free_vecs = list(iproduct(elems, repeat=m))
        for S in combinations(range(n), m):
            sset = set(S)
            nonpiv = [j for j in range(n) if j not in sset]
            col_options = []
            for j in nonpiv:
                per_row = []
                for i in range(m):
                    per_row.append(nonunits if S[i] > j else tuple(elems))
                col_options.append(list(iproduct(*per_row)))
            for cols_choice in iproduct(*col_options):
                fp_cols = [None] * n
                for i, s in enumerate(S):
                    fp_cols[s] = tuple(ring.one if t == i else ring.zero for t in range(m))
                for j, c in zip(nonpiv, cols_choice):
                    fp_cols[j] = c
                fp = Mat.from_cols(ring, fp_cols)
                for free in iproduct(free_vecs, repeat=n - m):
                    f = _complete_dependent(ring, fp, S, nonpiv, free)
                    out.append((fp, fs.setdefault(f.data, f)))
    got = tuple(out)
    if len(got) != ovic_count_local(ring, m, n):
        raise InvariantViolation("OVIC(%s)(%d,%d) enumeration disagrees with its count" % (ring.spec, m, n))
    _OVIC_LOCAL[key] = got
    return got


def ovic_hom_enumerate(ring, m, n, budget=None):
    """All OVIC(R) morphisms from rank m to rank n, sorted canonically; over
    a product ring each distinct tuple of local parts is lifted once."""
    count = ovic_count(ring, m, n)
    charge(count, budget, "OVIC(%s) hom(%d,%d) enumeration" % (ring.spec, m, n))
    out = []
    fps, fs = {}, {}  # ids of the local parts -> lifted Mat

    def lift(table, parts):
        # the local lists hold one Mat per distinct value, so ids name values
        key = tuple(map(id, parts))
        got = table.get(key)
        if got is None:
            got = table[key] = lift_mats(ring, parts)
        return got

    locs = [_ovic_local_list(rf, m, n) for rf in ring.local.factors]
    for combo in iproduct(*locs):
        fp = lift(fps, [c[0] for c in combo])
        f = lift(fs, [c[1] for c in combo])
        out.append(OvicMorphism(f, fp, check=False))
    out.sort(key=lambda mor: (mor.f.data, mor.fp.data))
    return tuple(out)


# ---------------------------------------------------------------------------
# the categories
# ---------------------------------------------------------------------------

def _split_products(gs, f):
    """The data of (g.f * f.f, f.fp * g.fp) for g in gs, by two batched products."""
    check_composable(gs, f)
    return zip(mul_rows_data([g.f for g in gs], f.f), mul_cols_data(f.fp, [g.fp for g in gs]))


def _precompose_split(cls, gs, f, fs, fps):
    """[cls(g.f * f.f, f.fp * g.fp) for g in gs], from _split_products, with
    one Mat per distinct value: fs and fps map the data of the f and fp
    halves built so far to their Mats, and each new half is added to them."""
    R, m = f.ring, f.src
    pairs = _split_products(gs, f)
    out = []
    try:
        for g, (a, ap) in zip(gs, pairs):
            hf = fs.get(a)
            if hf is None:
                hf = fs[a] = Mat(R, g.dst, m, a)
            hfp = fps.get(ap)
            if hfp is None:
                hfp = fps[ap] = Mat(R, m, g.dst, ap)
            out.append(cls(hf, hfp, check=False))
    except PreconditionError:
        raise InvariantViolation("composite of column-adapted morphisms lost adaptedness")
    return out


class VicCategory(Category):
    name = "VIC"
    is_complemented = True

    def __init__(self, ring, units=None):
        super().__init__()
        self.ring = ring
        self.units = units if isinstance(units, UnitSubgroup) else UnitSubgroup(ring, units)
        if self.units.ring != ring:
            raise PreconditionError("unit subgroup is over a different ring")
        self.is_symmetric = ring.neg_one in self.units

    def describe(self):
        if self.units.is_full:
            return "VIC(%s)" % self.ring.spec
        return "VIC(%s, U=%s)" % (self.ring.spec, sorted(self.units.elements))

    def _count_hom(self, m, n):
        if m > n:
            return 0
        if m == n:
            if n == 0:
                return 1
            total = gl_order(self.ring, n)
            units = len(self.ring.units())
            num = total * len(self.units.elements)
            if num % units:
                raise InvariantViolation("determinant classes do not divide GL evenly")
            return num // units
        return ovic_count(self.ring, m, n) * gl_order(self.ring, m)

    def _enumerate_hom(self, m, n):
        if m > n:
            return []
        if m == n:
            table = gl_pairs(self.ring, n, budget=-1)  # one Mat per element whose det lies in U
            mats = {i: table.mat(i) for i, d in enumerate(table.dets) if d in self.units}
            return [VicMorphism(a, mats[table.inv[i]], check=False) for i, a in mats.items()]
        ovics = ovic_hom_enumerate(self.ring, m, n, budget=-1)
        auts = [VicMorphism(a, ainv, check=False) for a, ainv, _ in gl_pairs(self.ring, m, budget=-1)]
        fs, fps = {}, {}  # few distinct halves: the whole hom set shares one Mat per value
        return [h for aut in auts for h in _precompose_split(VicMorphism, ovics, aut, fs, fps)]

    def identity(self, n):
        e = Mat.identity(self.ring, n)
        return VicMorphism(e, e, check=False)

    def compose(self, g, f):
        check_composable((g,), f)
        return VicMorphism(g.f.mul(f.f), f.fp.mul(g.fp), check=False)

    def precompose_keys(self, gs, f):
        return [(f.src, g.dst, a, ap) for g, (a, ap) in zip(gs, _split_products(gs, f))]

    def key(self, mor):
        return (mor.src, mor.dst, mor.f.data, mor.fp.data)

    def validate(self, mor):
        if not isinstance(mor, VicMorphism) or mor.ring != self.ring:
            return False
        if mor.fp.mul(mor.f) != Mat.identity(self.ring, mor.src):
            return False
        if mor.src == mor.dst and det(mor.f) not in self.units:
            return False
        return True

    # ----- complemented structure -----

    def monoidal_sum(self, f, g):
        return VicMorphism(
            block_diag(self.ring, [f.f, g.f]),
            block_diag(self.ring, [f.fp, g.fp]),
            check=False,
        )

    def slot_inclusion(self, slots, p):
        slots = tuple(slots)
        if any(not (0 <= s < p) for s in slots) or len(set(slots)) != len(slots):
            raise PreconditionError("bad slot list %r for rank %d" % (slots, p))
        ring = self.ring
        cols = []
        for s in slots:
            cols.append(tuple(ring.one if i == s else ring.zero for i in range(p)))
        f = Mat.from_cols(ring, cols) if cols else Mat.zeros(ring, p, 0)
        mor = VicMorphism(f, f.transpose(), check=False)
        if mor.src == mor.dst and det(mor.f) not in self.units:
            raise PreconditionError("slot permutation determinant lies outside the unit subgroup")
        return mor

    def complement_of(self, mor):
        """The complementary split injection onto ker(fp), with det landed in U.

        The basis of ker(fp) is the deterministic echelon basis; when needed,
        the first kernel column is rescaled by a unit so that the assembled
        square matrix [f | K] has determinant in U.
        """
        ring = self.ring
        n, m = mor.dst, mor.src
        r = n - m
        K = kernel_basis(mor.fp)
        M = hstack(mor.f, K) if r else mor.f
        d0 = det(M)
        if d0 not in self.units:
            if r == 0:
                raise InvariantViolation("automorphism with determinant outside U")
            t = ring.inverse(d0)
            if t is None:
                raise InvariantViolation("assembled complement matrix is not invertible")
            cols = [K.col(j) for j in range(r)]
            cols[0] = tuple(ring.mul(t, x) for x in cols[0])
            K = Mat.from_cols(ring, cols)
            M = hstack(mor.f, K)
            if det(M) not in self.units:
                raise InvariantViolation("determinant correction failed")
        Minv = inverse(M)
        iota_p = Mat(ring, r, n, Minv.data[m * n :])
        return r, VicMorphism(K if r else Mat.zeros(ring, n, 0), iota_p, check=False)

    def assemble(self, f, j):
        if f.dst != j.dst:
            raise PreconditionError("assemble requires a common target")
        if f.src + j.src != f.dst:
            return None
        M = hstack(f.f, j.f)
        Minv = try_inverse(M)
        if Minv is None:
            return None
        if det(M) not in self.units:
            return None
        return VicMorphism(M, Minv, check=False)

    def subobject_equal(self, u, v):
        if u.src != v.src or u.dst != v.dst:
            return False
        a = v.fp.mul(u.f)
        ainv = try_inverse(a)
        if ainv is None or det(a) not in self.units:
            return False
        return v.f.mul(a) == u.f and ainv.mul(v.fp) == u.fp

    def factor_through(self, j2, j1):
        """The morphism c with j2 . c = j1 (both components), when it exists."""
        c_f = j2.fp.mul(j1.f)
        c_fp = j1.fp.mul(j2.f)
        if j2.f.mul(c_f) != j1.f or c_fp.mul(j2.fp) != j1.fp:
            raise PreconditionError("factor_through: the subobject does not factor")
        return VicMorphism(c_f, c_fp, check=True)


class OvicCategory(Category):
    name = "OVIC"

    def __init__(self, ring):
        super().__init__()
        self.ring = ring

    def describe(self):
        return "OVIC(%s)" % self.ring.spec

    def _count_hom(self, m, n):
        return ovic_count(self.ring, m, n)

    def _enumerate_hom(self, m, n):
        return ovic_hom_enumerate(self.ring, m, n, budget=-1)

    def identity(self, n):
        e = Mat.identity(self.ring, n)
        return OvicMorphism(e, e, check=False)

    def compose(self, g, f):
        check_composable((g,), f)
        a, ap = g.f.mul(f.f), f.fp.mul(g.fp)
        try:
            return OvicMorphism(a, ap, check=False)
        except PreconditionError:
            raise InvariantViolation("composite of column-adapted morphisms lost adaptedness")

    def precompose(self, gs, f):
        return _precompose_split(OvicMorphism, gs, f, {}, {})

    def key(self, mor):
        return (mor.src, mor.dst, mor.f.data, mor.fp.data)

    def validate(self, mor):
        if not isinstance(mor, OvicMorphism) or mor.ring != self.ring:
            return False
        if mor.fp.mul(mor.f) != Mat.identity(self.ring, mor.src):
            return False
        return column_adapted(mor.fp) is not None


_VIC_CACHE = {}
_OVIC_CACHE = {}


def make_vic_category(ring, units=None):
    """VIC(ring, U); units None means the full unit group."""
    u = units if isinstance(units, UnitSubgroup) else UnitSubgroup(ring, units)
    key = (ring.spec, u.elements)
    got = _VIC_CACHE.get(key)
    if got is None:
        got = VicCategory(ring, u)
        _VIC_CACHE[key] = got
    return got


def make_ovic_category(ring):
    got = _OVIC_CACHE.get(ring.spec)
    if got is None:
        got = OvicCategory(ring)
        _OVIC_CACHE[ring.spec] = got
    return got


# ---------------------------------------------------------------------------
# unique factorization through OVIC
# ---------------------------------------------------------------------------

def vic_factor(mor):
    """Factor a VicMorphism as (ovic, aut) with mor = compose(ovic, aut).

    The splitting fp factors uniquely as f2 * f1 with f1 column-adapted and
    f2 invertible; then ovic = (f * f2, f1) and aut = (f2^{-1}, f2).
    """
    if not isinstance(mor, VicMorphism):
        raise PreconditionError("vic_factor needs a VicMorphism, got %r" % (mor,))
    f1, f2 = factor_surjection(mor.fp)
    f2inv = inverse(f2)
    ovic = OvicMorphism(mor.f.mul(f2), f1, check=True)
    aut = VicMorphism(f2inv, f2, check=False)
    if ovic.f.mul(aut.f) != mor.f or aut.fp.mul(ovic.fp) != mor.fp:
        raise InvariantViolation("OVIC factorization does not recompose")
    return ovic, aut

