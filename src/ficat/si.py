"""Symplectic modules over finite rings.

Symplectic forms, the complemented category SI(R) of standard symplectic
modules, enumeration of symplectic maps from arbitrary alternating forms,
and the unique row-adapted factorization f = f1 . f2 underlying OSI(R).

Conventions: objects of SI(R) are pair ranks n, realized as R^{2n} with the
standard interleaved form (pairs occupy coordinates (2i, 2i+1), 0-based).
A morphism m -> n is a 2n x 2m matrix f with f^T . Gram_dst . f = Gram_src.
"""

from itertools import product as iproduct

from .errors import PreconditionError, InvariantViolation, charge, nonneg_int
from .rings import prime_power
from .matrices import (
    Mat,
    block_diag,
    det,
    factor_surjection,
    hstack,
    inverse,
    kernel_basis,
    lift_mats,
    local_parts,
    mul_rows_data,
    row_adapted,
    try_inverse,
)
from .catcore import Category, check_composable


# ---------------------------------------------------------------------------
# symplectic forms
# ---------------------------------------------------------------------------

class SymplecticForm:
    """A nondegenerate alternating bilinear form on R^{2n}, held as its Gram
    matrix."""

    __slots__ = ("ring", "gram")

    def __init__(self, gram):
        if gram.rows != gram.cols:
            raise PreconditionError("a Gram matrix must be square")
        if gram.rows % 2:
            raise PreconditionError("symplectic modules have even rank, got %d" % gram.rows)
        ring = gram.ring
        for i in range(gram.rows):
            if gram.entry(i, i) != ring.zero:
                raise PreconditionError("Gram diagonal must vanish")
        if gram.transpose() != gram.neg():
            raise PreconditionError("Gram matrix must be antisymmetric")
        if not ring.is_unit(det(gram)):
            raise PreconditionError("Gram matrix is degenerate (determinant is not a unit)")
        self.ring = ring
        self.gram = gram

    @property
    def dim(self):
        return self.gram.rows

    @property
    def pairs(self):
        return self.gram.rows // 2

    def __eq__(self, other):
        return (
            isinstance(other, SymplecticForm)
            and other.ring == self.ring
            and other.gram.data == self.gram.data
        )

    def __hash__(self):
        return hash((self.ring.spec, self.gram.data))

    def __repr__(self):
        return "SymplecticForm(%r, %r)" % (self.ring.spec, self.gram.to_rows())


_STD_CACHE = {}


def standard_form(ring, n):
    """The standard form on R^{2n}: 2x2 blocks [[0,1],[-1,0]] down the
    diagonal, one per interleaved pair."""
    nonneg_int(n, "pair rank")
    got = _STD_CACHE.get((ring, n))
    if got is None:
        blk = Mat.from_rows(ring, [[ring.zero, ring.one], [ring.neg_one, ring.zero]])
        got = SymplecticForm(block_diag(ring, [blk] * n))
        _STD_CACHE[(ring, n)] = got
    return got


def symplectic_check(f, src, dst):
    """True when f^T . Gram_dst . f = Gram_src."""
    if f.rows != dst.dim or f.cols != src.dim:
        raise PreconditionError(
            "matrix is %dx%d but the forms have dims %d -> %d" % (f.rows, f.cols, src.dim, dst.dim)
        )
    return f.transpose().mul(dst.gram.mul(f)) == src.gram


def perp(w, form):
    """A basis of the symplectic perpendicular of the submodule spanned by the
    columns of w, verified to complement it.

    Requires the restriction of the form to w to be nondegenerate.
    """
    ring = form.ring
    if w.rows != form.dim:
        raise PreconditionError("submodule basis has %d rows, form has dim %d" % (w.rows, form.dim))
    restricted = w.transpose().mul(form.gram.mul(w))
    if not ring.is_unit(det(restricted)):
        raise PreconditionError("perp requires a nondegenerate (symplectic) submodule")
    k = kernel_basis(w.transpose().mul(form.gram))
    if k.cols != form.dim - w.cols:
        raise InvariantViolation("perpendicular has unexpected rank")
    if w.cols and k.cols:
        if try_inverse(hstack(w, k)) is None:
            raise InvariantViolation("submodule and perpendicular do not span")
    elif k.cols == form.dim:
        if try_inverse(k) is None:
            raise InvariantViolation("perpendicular of the zero module must be everything")
    return k


# ---------------------------------------------------------------------------
# group orders
# ---------------------------------------------------------------------------

def _sp_order_local(p, k, n):
    """|Sp_{2n}(Z/p^k)|: the residue-field order times p to the group
    dimension n(2n+1) for each extra power."""
    field = p ** (n * n)
    for i in range(1, n + 1):
        field *= p ** (2 * i) - 1
    return p ** ((k - 1) * (2 * n * n + n)) * field


def _si_hom_count(ring, m, n):
    """|SI(m, n)|: per local factor, |Sp_2n| over the stabilizer |Sp_2(n-m)|."""
    if m > n:
        return 0
    total = 1
    for fac in ring.local.factors:
        p, k = prime_power(fac.size)
        num = _sp_order_local(p, k, n)
        den = _sp_order_local(p, k, n - m)
        if num % den:
            raise InvariantViolation("symplectic point count is not divisible by the stabilizer")
        total *= num // den
    return total


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

class SiMorphism:
    """A symplectic map between formed modules, stored with both forms;
    wporder fills its row-adapted profile, word encoding and total-order key
    on first use."""

    __slots__ = ("f", "src_form", "dst_form", "row_profile", "words", "total_key")

    def __init__(self, f, src_form, dst_form, check=True):
        if check:
            if f.ring != src_form.ring or f.ring != dst_form.ring:
                raise PreconditionError("matrix and forms live over different rings")
            if not symplectic_check(f, src_form, dst_form):
                raise PreconditionError("matrix does not intertwine the forms")
        self.f = f
        self.src_form = src_form
        self.dst_form = dst_form

    @property
    def ring(self):
        return self.f.ring

    @property
    def src(self):
        return self.src_form.pairs

    @property
    def dst(self):
        return self.dst_form.pairs

    def __eq__(self, other):
        return (
            isinstance(other, SiMorphism)
            and other.f.data == self.f.data
            and other.src_form == self.src_form
            and other.dst_form == self.dst_form
        )

    def __hash__(self):
        return hash((self.f.data, self.src_form, self.dst_form))

    def __repr__(self):
        return "SiMorphism(%r: %d pairs -> %d pairs)" % (self.f.to_rows(), self.src, self.dst)


def si_compose(g, f):
    """Composite g after f for symplectic maps with matching middle form."""
    if g.src_form != f.dst_form:
        raise PreconditionError("composition form mismatch")
    return SiMorphism(g.f.mul(f.f), f.src_form, g.dst_form, check=False)


def si_left_inverse(mor):
    """The symplectic left inverse Gram_src^{-1} . f^T . Gram_dst."""
    ginv = inverse(mor.src_form.gram)
    return ginv.mul(mor.f.transpose().mul(mor.dst_form.gram))


# ---------------------------------------------------------------------------
# enumeration of symplectic maps (per local factor, column backtracking)
# ---------------------------------------------------------------------------

_LOCAL_HOM_CACHE = {}


def _local_symplectic_maps(ring, src_gram, n, budget=None):
    """All matrices f (2n x src_dim) over a local ring with
    f^T . Gram_std(n) . f = src_gram, by backtracking over columns."""
    key = (ring, src_gram.data, n)
    got = _LOCAL_HOM_CACHE.get(key)
    if got is not None:
        return got
    dim_src = src_gram.rows
    dim_dst = 2 * n
    omega = standard_form(ring, n).gram
    size = ring.size
    vectors = [tuple(v) for v in iproduct(range(size), repeat=dim_dst)]
    # pairing rows: for a chosen column c, c^T . omega as a row functional
    scanned = 0
    results = []
    mul = ring.mul
    add = ring.add

    def pair_row(col):
        out = []
        for j in range(dim_dst):
            acc = ring.zero
            for i in range(dim_dst):
                acc = add(acc, mul(col[i], omega.entry(i, j)))
            out.append(acc)
        return tuple(out)

    def extend(cols, rows_so_far):
        nonlocal scanned
        j = len(cols)
        if j == dim_src:
            results.append(Mat.from_cols(ring, cols) if cols else Mat.zeros(ring, dim_dst, 0))
            return
        targets = [src_gram.entry(i, j) for i in range(j)]
        for cand in vectors:
            scanned += 1
            if scanned % 4096 == 0:
                charge(scanned, budget, "symplectic backtracking")
            ok = True
            for i in range(j):
                row = rows_so_far[i]
                acc = ring.zero
                for t in range(dim_dst):
                    acc = add(acc, mul(row[t], cand[t]))
                if acc != targets[i]:
                    ok = False
                    break
            if ok:
                extend(cols + [cand], rows_so_far + [pair_row(cand)])

    extend([], [])
    got = tuple(results)
    _LOCAL_HOM_CACHE[key] = got
    return got


def si_hom_from(src_form, n, budget=None):
    """All symplectic maps (R^{2d}, src_form) -> (R^{2n}, std), sorted."""
    ring = src_form.ring
    d = src_form.pairs
    if d > n:
        return ()
    count = _si_hom_count(ring, d, n)
    charge(count, budget, "symplectic hom enumeration")
    per_factor = [_local_symplectic_maps(g.ring, g, n, budget) for g in local_parts(src_form.gram)]
    dst = standard_form(ring, n)
    out = []
    for combo in iproduct(*per_factor):
        mat = lift_mats(ring, list(combo))
        out.append(SiMorphism(mat, src_form, dst, check=False))
    if len(out) != count:
        raise InvariantViolation(
            "symplectic enumeration found %d maps, the order formula says %d" % (len(out), count)
        )
    out.sort(key=lambda m: m.f.data)
    return tuple(out)


def osi_prime_hom(src_form, n, budget=None):
    """The row-adapted symplectic maps (R^{2d}, src_form) -> (R^{2n}, std)."""
    out = [m for m in si_hom_from(src_form, n, budget) if row_adapted(m.f) is not None]
    return tuple(out)


# ---------------------------------------------------------------------------
# the category SI(R)
# ---------------------------------------------------------------------------

class SiCategory(Category):
    """Standard symplectic modules over R with form-preserving maps.

    Complemented symmetric monoidal structure: the sum is the orthogonal
    direct sum (block-diagonal on interleaved pairs) and the complement of a
    subobject is its symplectic perpendicular, standardized by symplectic
    Gram-Schmidt.
    """

    name = "SI"
    is_complemented = True
    is_symmetric = True

    def __init__(self, ring):
        super().__init__()
        self.ring = ring

    def describe(self):
        return "SI(%s)" % self.ring.spec

    def form(self, n):
        return standard_form(self.ring, n)

    def _count_hom(self, m, n):
        return _si_hom_count(self.ring, m, n)

    def _enumerate_hom(self, m, n):
        if m > n:
            return []
        return list(si_hom_from(self.form(m), n, budget=-1))

    def identity(self, n):
        return SiMorphism(Mat.identity(self.ring, 2 * n), self.form(n), self.form(n), check=False)

    def compose(self, g, f):
        check_composable((g,), f)
        return si_compose(g, f)

    def _products(self, gs, f):
        """The data of g.f * f.f for g in gs, by one batched product."""
        for g in gs:
            check_composable((g,), f)
            if g.src_form != f.dst_form:
                raise PreconditionError("composition form mismatch")
        return mul_rows_data([g.f for g in gs], f.f)

    def precompose_keys(self, gs, f):
        return [(f.src, g.dst, a) for g, a in zip(gs, self._products(gs, f))]

    def key(self, mor):
        return (mor.src, mor.dst, mor.f.data)

    def validate(self, mor):
        if not isinstance(mor, SiMorphism) or mor.ring != self.ring:
            return False
        if mor.src_form != self.form(mor.src) or mor.dst_form != self.form(mor.dst):
            return False
        return symplectic_check(mor.f, mor.src_form, mor.dst_form)

    # ----- complemented structure -----

    def monoidal_sum(self, f, g):
        return SiMorphism(
            block_diag(self.ring, [f.f, g.f]),
            self.form(f.src + g.src),
            self.form(f.dst + g.dst),
            check=False,
        )

    def slot_inclusion(self, slots, p):
        slots = tuple(slots)
        if any(not (0 <= s < p) for s in slots) or len(set(slots)) != len(slots):
            raise PreconditionError("bad slot list %r for rank %d" % (slots, p))
        ring = self.ring
        cols = []
        for s in slots:
            for off in (0, 1):
                cols.append(
                    tuple(ring.one if i == 2 * s + off else ring.zero for i in range(2 * p))
                )
        f = Mat.from_cols(ring, cols) if cols else Mat.zeros(ring, 2 * p, 0)
        return SiMorphism(f, self.form(len(slots)), self.form(p), check=False)

    def complement_of(self, mor):
        """The perpendicular of the image, standardized pair by pair."""
        n, m = mor.dst, mor.src
        r = n - m
        form_n = self.form(n)
        if r == 0:
            return 0, SiMorphism(
                Mat.zeros(self.ring, 2 * n, 0), self.form(0), form_n, check=False
            )
        k = perp(mor.f, form_n)
        k = _standardize_symplectic_basis(self.ring, k, form_n)
        return r, SiMorphism(k, self.form(r), form_n, check=False)

    def assemble(self, f, j):
        if f.dst != j.dst:
            raise PreconditionError("assemble requires a common target")
        if f.src + j.src != f.dst:
            return None
        m = hstack(f.f, j.f)
        if try_inverse(m) is None:
            return None
        if not symplectic_check(m, self.form(f.src + j.src), self.form(f.dst)):
            return None
        return SiMorphism(m, self.form(f.src + j.src), self.form(f.dst), check=False)

    def subobject_equal(self, u, v):
        if u.src != v.src or u.dst != v.dst:
            return False
        sigma = si_left_inverse(u).mul(v.f)
        return u.f.mul(sigma) == v.f

    def factor_through(self, j2, j1):
        """The morphism c with j2 . c = j1, when the image factors."""
        c = si_left_inverse(j2).mul(j1.f)
        if j2.f.mul(c) != j1.f:
            raise PreconditionError("factor_through: the subobject does not factor")
        return SiMorphism(c, self.form(j1.src), self.form(j2.src), check=True)


def _standardize_symplectic_basis(ring, k, form):
    """Rewrite the columns of k so their Gram under form is the standard
    interleaved form, working one local factor at a time."""
    fixed = [
        _local_symplectic_gs(k_i.ring, [k_i.col(j) for j in range(k.cols)], omega)
        for k_i, omega in zip(local_parts(k), local_parts(form.gram))
    ]
    out = lift_mats(ring, fixed)
    r = k.cols // 2
    if out.transpose().mul(form.gram.mul(out)) != standard_form(ring, r).gram:
        raise InvariantViolation("symplectic Gram-Schmidt did not standardize the basis")
    return out


def _local_symplectic_gs(ring, cols, omega):
    """Symplectic Gram-Schmidt over a local ring: pick the first unit pairing,
    scale it to 1, clear the rest, recurse."""
    mul = ring.mul
    add = ring.add
    sub = ring.sub

    def pairing(u, v):
        acc = ring.zero
        for i in range(len(u)):
            row = omega.row(i)
            for j in range(len(v)):
                acc = add(acc, mul(u[i], mul(row[j], v[j])))
        return acc

    remaining = list(cols)
    ordered = []
    while remaining:
        pick = None
        for a_idx in range(len(remaining)):
            for b_idx in range(a_idx + 1, len(remaining)):
                if ring.is_unit(pairing(remaining[a_idx], remaining[b_idx])):
                    pick = (a_idx, b_idx)
                    break
            if pick:
                break
        if pick is None:
            raise InvariantViolation("no unit pairing in a nondegenerate Gram block")
        a_idx, b_idx = pick
        a = remaining[a_idx]
        b = remaining[b_idx]
        scale = ring.inverse(pairing(a, b))
        b = tuple(mul(scale, x) for x in b)
        rest = [remaining[t] for t in range(len(remaining)) if t not in (a_idx, b_idx)]
        cleaned = []
        for w in rest:
            ca = pairing(b, w)  # coefficient on a: w' = w + w(b,w) a - w(a,w) b
            cb = pairing(a, w)
            w2 = tuple(
                sub(add(w[t], mul(ca, a[t])), mul(cb, b[t]))
                for t in range(len(w))
            )
            cleaned.append(w2)
        ordered.extend([a, b])
        remaining = cleaned
    if ordered:
        return Mat.from_cols(ring, ordered)
    return Mat.zeros(ring, omega.rows, 0)


_SI_CACHE = {}


def make_si_category(ring):
    got = _SI_CACHE.get(ring)
    if got is None:
        got = SiCategory(ring)
        _SI_CACHE[ring] = got
    return got


# ---------------------------------------------------------------------------
# row-adapted factorization (OSI)
# ---------------------------------------------------------------------------

def osi_factor(mor):
    """The unique factorization f = f1 . f2 of a symplectic map out of a
    standard module: f2 an isomorphism (R^{2d}, std) -> (R^{2d}, lam) and f1
    row-adapted symplectic from (R^{2d}, lam).

    Returns (f1, f2, lam). lam is the pushforward of the standard form along
    f2, i.e. the unique form making f2 symplectic.
    """
    ring = mor.ring
    d = mor.src
    if mor.src_form != standard_form(ring, d):
        raise PreconditionError("osi_factor requires the standard form on the source")
    g1, g2 = factor_surjection(mor.f.transpose())
    f1_mat = g1.transpose()
    f2_mat = g2.transpose()
    if f1_mat.mul(f2_mat) != mor.f:
        raise InvariantViolation("row-adapted factorization does not recompose")
    if row_adapted(f1_mat) is None:
        raise InvariantViolation("adapted factor is not row-adapted")
    inv2 = inverse(f2_mat)
    lam_gram = inv2.transpose().mul(mor.src_form.gram.mul(inv2))
    lam = SymplecticForm(lam_gram)
    f2 = SiMorphism(f2_mat, mor.src_form, lam, check=True)
    f1 = SiMorphism(f1_mat, lam, mor.dst_form, check=True)
    return f1, f2, lam


# ---------------------------------------------------------------------------
# the category OSI(R): row-adapted symplectic maps between standard modules
# ---------------------------------------------------------------------------

class OsiCategory(Category):
    """Row-adapted symplectic maps between standard symplectic modules.

    There is no closed hom-count formula here; counting enumerates, so the
    usual count-versus-enumeration cross-check is vacuous for this category.
    """

    name = "OSI"
    is_complemented = False
    is_symmetric = False

    def __init__(self, ring):
        super().__init__()
        self.ring = ring

    def describe(self):
        return "OSI(%s)" % self.ring.spec

    def _count_hom(self, m, n):
        return len(self.hom(m, n))

    def hom(self, m, n, budget=None):
        """The sorted row-adapted maps from rank m to rank n, filtered once
        from the SI maps; the budget is charged for the SI enumeration."""
        nonneg_int(m, "object rank")
        nonneg_int(n, "object rank")
        got = self._hom_cache.get((m, n))
        if got is None:
            charge(_si_hom_count(self.ring, m, n), budget, "hom(%d,%d) enumeration in %s" % (m, n, self.describe()))
            got = osi_prime_hom(standard_form(self.ring, m), n, budget=-1)
            if len(set(self.key(f) for f in got)) != len(got):
                raise InvariantViolation("duplicate morphisms in hom enumeration")
            self._hom_cache[(m, n)] = got
        return got

    def identity(self, n):
        f = standard_form(self.ring, n)
        return SiMorphism(Mat.identity(self.ring, 2 * n), f, f, check=False)

    def compose(self, g, f):
        check_composable((g,), f)
        out = si_compose(g, f)
        if row_adapted(out.f) is None:
            raise InvariantViolation("composition lost row-adaptedness")
        return out

    def key(self, mor):
        return (mor.src, mor.dst, mor.f.data)

    def validate(self, mor):
        if not isinstance(mor, SiMorphism) or mor.ring != self.ring:
            return False
        if mor.src_form != standard_form(self.ring, mor.src):
            return False
        if mor.dst_form != standard_form(self.ring, mor.dst):
            return False
        if row_adapted(mor.f) is None:
            return False
        return symplectic_check(mor.f, mor.src_form, mor.dst_form)


_OSI_CACHE = {}


def make_osi_category(ring):
    got = _OSI_CACHE.get(ring)
    if got is None:
        got = OsiCategory(ring)
        _OSI_CACHE[ring] = got
    return got

