"""Truncated modules over the enumerable categories and their shift complexes.

A truncated module assigns to every rank n <= N a finite-dimensional space
over an exact coefficient field (the rationals or a prime field) and to every
morphism an action matrix, functorial on everything enumerable below the
truncation.  Every linear map here (actions, differentials, homotopies,
stabilizations) is one SparseMap, its columns packed into flat arrays of
rows and coefficients; its rank streams the columns, and one echelon of
sparse rows (SpanBuilder) answers kernel, basis and span membership.
On top of that this module provides:

  * representable modules P_d (free on hom(d, -), acting by postcomposition),
  * submodule closures, grown to a fixed point of pushes along every morphism,
  * the initial-term engine over the ordered categories (leading basis
    morphism in the staged total order) and the init-gap comparison,
  * the shift chain complexes in four variants ("plain", "prime", "double",
    "triple": no identification, identification along per-slot automorphisms
    with sign +1, along slot permutations with the permutation sign, and
    along both), with d o d = 0 checked at construction,
  * homology dimension tables with exactness-threshold reports,
  * the stabilization chain homotopy check (dG + Gd equals the stabilization
    map, degree 0 reducing to d_1 G = I) together with the induced-zero
    consequence on homology, and
  * the finite-generation surjectivity report for d_1: (Sigma_1 M)_V -> M_V.

Every shift complex comes from one pass over (p, n) that builds the orbit
tables and the faces.  A representable P_d (route "representable") is free
on the orbits of hom(p + d, n); any other module (route "complement") has a
block of M at each representative's complement, and the whole of a
representable, taken as a submodule, cross-checks the two routes.  The faces
are read as keys (Category.precompose_each), with no morphism per face, and
every sum of coefficients (a differential's entries, written straight into
its arrays, its d o d check, the homotopy check) runs on raw integers or
rationals and is reduced into the field once per entry; over F_2 the d o d
check instead XORs columns packed as ints.
"""

import math
from array import array
from fractions import Fraction
from itertools import compress, count, pairwise, permutations, product
from operator import ge

from .errors import InvariantViolation, PreconditionError, nonneg_int


# ---------------------------------------------------------------------------
# Coefficient fields
# ---------------------------------------------------------------------------

class CoefField:
    """An exact coefficient field: the rationals (p = 0) or F_p, p prime."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p=0):
        if not isinstance(p, int) or p < 0:
            raise PreconditionError("field characteristic must be 0 or a prime, got %r" % (p,))
        if p:
            if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
                raise PreconditionError("%d is not prime" % p)
        self.p = p
        self.zero = self.of(0)
        self.one = self.of(1)

    def of(self, x):
        """The canonical element for an integer or a rational; over F_p the
        rational a/b maps to a * b^-1, which needs p not to divide b."""
        p = self.p
        if isinstance(x, int):
            return x % p if p else Fraction(x)
        if isinstance(x, Fraction) and not p:
            return x
        if isinstance(x, Fraction) and x.denominator % p:
            return x.numerator * pow(x.denominator, -1, p) % p
        raise PreconditionError("%r has no image in %s" % (x, self))

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def inv(self, a):
        if a == self.zero:
            raise PreconditionError("division by zero in %s" % self)
        if self.p:
            return pow(a, self.p - 2, self.p)
        return Fraction(1) / a

    def __eq__(self, other):
        return isinstance(other, CoefField) and other.p == self.p

    def __hash__(self):
        return hash(("CoefField", self.p))

    def __repr__(self):
        return "Q" if self.p == 0 else "F%d" % self.p


def coef_field(spec):
    """Parse a field spec: 'Q' for the rationals, 'F<p>' or a bare prime."""
    if isinstance(spec, CoefField):
        return spec
    if isinstance(spec, int):
        return CoefField(spec)
    text = str(spec).strip().upper()
    if text in ("Q", "QQ", "RATIONALS", "0"):
        return CoefField(0)
    for prefix in ("GF(", "F_", "F"):
        if text.startswith(prefix):
            digits = text[len(prefix):].rstrip(")")
            if digits.isdigit():
                return CoefField(int(digits))
            break
    if text.isdigit():
        return CoefField(int(text))
    raise PreconditionError("cannot parse coefficient field %r" % (spec,))


# ---------------------------------------------------------------------------
# Row-space linear algebra over a CoefField
# ---------------------------------------------------------------------------
# Two eliminations.  SparseMap.rank streams a map's columns, array slices,
# each packed along the rows and reduced on the pivots kept so far, pivoting
# on its last nonzero row; only the pivots are held.  SpanBuilder serves basis,
# membership and kernels: it keeps an incremental row echelon of sparse rows
# {column: nonzero coefficient}, each stored under its pivot, the least
# column present, with a unit pivot.  Membership is reduction to zero;
# basis() is the one back-substitution, to the canonical reduced form from
# which kernels and coordinates are read.  Over F_2 both pack vectors into
# integers (bit i is row or column i).  SpanBuilder takes vectors as dense
# tuples, as dicts, or over F_2 as integers.

def _bits_to_vec(bits, width):
    return tuple((bits >> c) & 1 for c in range(width))


def _axpy(p, r, c, row):
    """r += c * row in place over F_p (p > 0) or Q, dropping zeros."""
    for k, y in row.items():
        x = r.get(k, 0) + c * y
        if p:
            x %= p
        if x:
            r[k] = x
        else:
            r.pop(k, None)


def kernel_vectors(field, rows, width):
    """A basis of {v : A v = 0} for the matrix with the given rows."""
    basis, pivots = SpanBuilder(field, width, rows).basis()
    pivot_set = set(pivots)
    out = []
    for free in range(width):
        if free in pivot_set:
            continue
        v = [field.zero] * width
        v[free] = field.one
        for row, p in zip(basis, pivots):
            v[p] = field.neg(row[free])
        out.append(tuple(v))
    return tuple(out)


def span_coords(field, basis, pivots, vec):
    """Coordinates of vec in a canonical reduced basis, or None."""
    zero = field.zero
    r = list(vec)
    coords = []
    for row, p in zip(basis, pivots):
        c = r[p]
        coords.append(c)
        if c != zero:
            r = [field.sub(x, field.mul(c, y)) for x, y in zip(r, row)]
    if any(x != zero for x in r):
        return None
    return tuple(coords)


class SpanBuilder:
    """Incrementally grown subspace with an echelon basis."""

    def __init__(self, field, width, rows=()):
        self.field = field
        self.width = width
        self.bits = field.p == 2
        self.rows = {}  # pivot column -> echelon row, unit pivot, no column before it
        for r in rows:
            self.add(r)

    def _reduce(self, vec):
        """(row, pivot) to insert for a new direction, or (_, None) in the span."""
        if self.bits:
            if isinstance(vec, int):
                r = vec
            else:
                r = 0
                for c, x in (vec.items() if isinstance(vec, dict) else enumerate(vec)):
                    if x:
                        r |= 1 << c
            while r:
                j = (r & -r).bit_length() - 1
                if j not in self.rows:
                    return r, j
                r ^= self.rows[j]
            return 0, None
        field = self.field
        p = field.p
        r = {c: x for c, x in (vec.items() if isinstance(vec, dict) else enumerate(vec)) if x}
        while r:
            j = min(r)
            row = self.rows.get(j)
            if row is None:
                scale = field.inv(r[j])
                return {c: field.mul(scale, x) for c, x in r.items()}, j
            _axpy(p, r, field.neg(r[j]), row)
        return None, None

    def add(self, vec):
        """Insert a vector; True when the dimension grew."""
        r, j = self._reduce(vec)
        if j is None:
            return False
        self.rows[j] = r
        return True

    def contains(self, vec):
        _, j = self._reduce(vec)
        return j is None

    def dim(self):
        return len(self.rows)

    def basis(self):
        """The canonical reduced basis as (rows, pivots) over dense tuples.

        Rows are cleared from the last pivot back: a row is reduced by the
        already reduced rows of its later pivots, each of which is zero at
        every other pivot column.
        """
        pivots = sorted(self.rows)
        reduced = {}
        for j in reversed(pivots):
            r = self.rows[j]
            if self.bits:
                rest = r & (r - 1)
                while rest:
                    k = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    if k in reduced:
                        r ^= reduced[k]
            else:
                r = dict(r)
                for k in [k for k in r if k in reduced]:
                    _axpy(self.field.p, r, self.field.neg(r[k]), reduced[k])
            reduced[j] = r
        if self.bits:
            rows = [_bits_to_vec(reduced[j], self.width) for j in pivots]
        else:
            zero = self.field.zero
            rows = [tuple(reduced[j].get(c, zero) for c in range(self.width)) for j in pivots]
        return tuple(rows), tuple(pivots)


# ---------------------------------------------------------------------------
# Sparse maps (differentials, homotopies, stabilizations)
# ---------------------------------------------------------------------------

class SparseMap:
    """A linear map in compressed-sparse-column form: column j has the rows
    row_of[starts[j]:starts[j + 1]] (array('i')s), strictly increasing, with
    nonzero coefficients in the same slice of the list coef.  column(j) and
    columns are pair-tuple views for reading by hand."""

    __slots__ = ("rows", "cols", "starts", "row_of", "coef")

    def __init__(self, rows, cols, columns):
        starts, row_of, coef = array("i", [0]), array("i"), []
        try:
            for col in columns:
                for r, x in col:
                    row_of.append(r)
                    coef.append(x)
                starts.append(len(row_of))
        except (OverflowError, TypeError, ValueError) as exc:
            raise PreconditionError("sparse map columns must hold (int row, coefficient) pairs: %s" % exc) from None
        if len(starts) != cols + 1:
            raise PreconditionError("sparse map has %d columns, declared %d" % (len(starts) - 1, cols))
        self._adopt(rows, starts, row_of, coef)

    @classmethod
    def packed(cls, rows, starts, row_of, coef):
        """The map with these arrays, checked like pair columns."""
        m = cls.__new__(cls)
        m._adopt(rows, starts, row_of, coef)
        return m

    def _adopt(self, rows, starts, row_of, coef):
        if row_of and (min(row_of) < 0 or max(row_of) >= rows):
            raise PreconditionError("sparse map has a row outside 0..%d" % (rows - 1))
        # a row not above the one before must open a column; both are sorted, so `in` walks starts once
        opens = iter(starts)
        if not all(k in opens for k in compress(count(1), map(ge, row_of, row_of[1:]))):
            raise PreconditionError("sparse map rows are not strictly increasing within a column")
        if 0 in coef:
            raise PreconditionError("sparse map stores a zero coefficient")
        self.rows, self.cols, self.starts, self.row_of, self.coef = rows, len(starts) - 1, starts, row_of, coef

    def column(self, j):
        a, b = self.starts[j], self.starts[j + 1]
        return tuple(zip(self.row_of[a:b], self.coef[a:b]))

    @property
    def columns(self):
        return tuple(map(self.column, range(self.cols)))

    def accumulate(self, acc, col_entries):
        """Add this map applied to a sparse column (pairs (j, coeff)) into
        acc {row: raw sum}, with no reduction; returns acc."""
        starts, row_of, coef = self.starts, self.row_of, self.coef
        for j, c in col_entries:
            for k in range(starts[j], starts[j + 1]):
                r = row_of[k]
                acc[r] = acc.get(r, 0) + c * coef[k]
        return acc

    def apply_column(self, field, col_entries):
        """Apply to a sparse column (pairs (row, coeff)); {row: coeff} in row order."""
        return _reduced_column(field, self.accumulate({}, col_entries))

    def row_dicts(self):
        """The rows as {column: coefficient}."""
        rows = [{} for _ in range(self.rows)]
        for j, (a, b) in enumerate(pairwise(self.starts)):
            for r, x in zip(self.row_of[a:b], self.coef[a:b]):
                rows[r][j] = x
        return rows

    def bit_columns(self):
        """Over F_2: the columns one at a time, each as an int with bit r set
        for every stored row r (all stored coefficients are 1)."""
        row_of = self.row_of
        for a, b in pairwise(self.starts):
            v = 0
            for r in row_of[a:b]:
                v |= 1 << r
            yield v

    def rank(self, field):
        """The rank over field, by one pass over the stored columns.

        Each column is packed along the rows as it is read (over F_2 an int
        from bit_columns, otherwise {row: coefficient}) and reduced on the
        pivots kept so far, each stored under its last nonzero row; a column
        left nonzero becomes a pivot.  Over F_p and Q a pivot is scaled to a
        unit at that row and kept without it, so every step removes the
        column's last entry.  Only the pivot vectors are held, never the rows.
        """
        pivots = {}
        if field.p == 2:
            for v in self.bit_columns():
                while v:
                    j = v.bit_length() - 1
                    if j not in pivots:
                        pivots[j] = v
                        break
                    v ^= pivots[j]
            return len(pivots)
        p, row_of = field.p, self.row_of
        for a, b in pairwise(self.starts):
            v = dict(zip(row_of[a:b], self.coef[a:b]))
            while v:
                j = max(v)
                c = v.pop(j)
                if j not in pivots:
                    scale = field.inv(c)
                    pivots[j] = {r: field.mul(scale, x) for r, x in v.items()}
                    break
                _axpy(p, v, -c, pivots[j])
        return len(pivots)

    def __repr__(self):
        return "SparseMap(%d x %d, %d entries)" % (self.rows, self.cols, len(self.row_of))


def _reduced_column(field, acc):
    """The raw sums acc {row: sum} in row order, each reduced once into the
    field, zeros dropped."""
    p = field.p
    if p:
        return {r: x for r in sorted(acc) if (x := acc[r] % p)}
    return {r: field.of(acc[r]) for r in sorted(acc) if acc[r]}


def _integral(field, m):
    """m with integer entries and m's row arrays: over Q scaled by the lcm of
    its denominators, so that m . x = 0 exactly when the scaled map's is."""
    if field.p:
        return m
    scale = math.lcm(*(x.denominator for x in m.coef))
    return SparseMap.packed(m.rows, m.starts, m.row_of, [x.numerator * (scale // x.denominator) for x in m.coef])


def _composite_vanishes(field, outer, inner):
    """Whether outer . inner = 0, column by column: over F_2 by XOR of
    outer's columns packed as bits, otherwise on integer sums."""
    if field.p == 2:
        masks = list(outer.bit_columns())
        row_of = inner.row_of
        for a, b in pairwise(inner.starts):
            v = 0
            for j in row_of[a:b]:
                v ^= masks[j]
            if v:
                return False
        return True
    p = field.p
    outer, inner = _integral(field, outer), _integral(field, inner)
    row_of, coef = inner.row_of, inner.coef
    for a, b in pairwise(inner.starts):
        acc = outer.accumulate({}, zip(row_of[a:b], coef[a:b]))
        if any(x % p for x in acc.values()) if p else any(acc.values()):
            return False
    return True


# ---------------------------------------------------------------------------
# Truncated modules
# ---------------------------------------------------------------------------

class TruncatedModule:
    """A functor rank -> vector space, truncated at max_rank.

    dims maps each rank 0..N to a dimension; act_fn(mor) produces the action
    matrix as a SparseMap of shape dims[dst] x dims[src].  Matrices are
    cached by the category's morphism key.
    """

    def __init__(self, cat, field, max_rank, dims, act_fn, kind, name, gen_rank=None, labels=None):
        self.cat = cat
        self.field = field
        self.max_rank = max_rank
        self.dims = dict(dims)
        self.kind = kind
        self.name = name
        self.gen_rank = gen_rank
        self.labels = labels
        self._act_fn = act_fn
        self._act_cache = {}
        self._act_bits_cache = {}
        self._total_keys = {}
        for n in range(max_rank + 1):
            if n not in self.dims:
                raise PreconditionError("module %s lacks a dimension at rank %d" % (name, n))

    def __repr__(self):
        return "TruncatedModule(%s over %s, %r, N=%d)" % (self.name, self.cat.describe(), self.field, self.max_rank)

    def _check_mor(self, mor):
        if mor.src > self.max_rank or mor.dst > self.max_rank:
            raise PreconditionError(
                "morphism %d -> %d is beyond the truncation N=%d" % (mor.src, mor.dst, self.max_rank)
            )

    def act(self, mor):
        """The action matrix of a morphism as a SparseMap, cached."""
        self._check_mor(mor)
        key = self.cat.key(mor)
        got = self._act_cache.get(key)
        if got is None:
            got = self._act_fn(mor)
            if (got.rows, got.cols) != (self.dims[mor.dst], self.dims[mor.src]):
                raise InvariantViolation("action matrix of %r has the wrong shape" % (mor,))
            self._act_cache[key] = got
        return got

    def act_bits(self, mor):
        """Over F_2 only: the action as column bitmasks (bit r = row r)."""
        if self.field.p != 2:
            raise PreconditionError("bit-packed actions need coefficients in F2")
        key = self.cat.key(mor)
        got = self._act_bits_cache.get(key)
        if got is None:
            got = tuple(self.act(mor).bit_columns())
            self._act_bits_cache[key] = got
        return got

    def total_keys(self, n):
        """Staged total-order keys of the rank-n basis (ordered categories)."""
        if self.kind != "representable":
            raise PreconditionError("initial terms are defined on representable modules")
        got = self._total_keys.get(n)
        if got is None:
            from .wporder import order_of
            key_fn = order_of(self.cat).total_key
            got = tuple(key_fn(u) for u in self.labels[n])
            if len(set(got)) != len(got):
                raise InvariantViolation("total-order keys collide at rank %d" % n)
            self._total_keys[n] = got
        return got


def representable(cat, d, max_rank, field, budget=None):
    """The representable module P_d: free on hom(d, n), postcomposition acts."""
    nonneg_int(d, "generator rank")
    nonneg_int(max_rank, "truncation")
    field = coef_field(field)
    labels = {n: cat.hom(d, n, budget=budget) for n in range(max_rank + 1)}
    dims = {n: len(labels[n]) for n in labels}

    def act_fn(mor):
        dst_index = cat.position(d, mor.dst)
        cols = [((dst_index[cat.key(cat.compose(mor, u))], field.one),) for u in labels[mor.src]]
        return SparseMap(dims[mor.dst], dims[mor.src], cols)

    return TruncatedModule(
        cat, field, max_rank, dims, act_fn,
        kind="representable", name="P%d" % d, gen_rank=d, labels=labels,
    )


# ---------------------------------------------------------------------------
# Submodules and closure
# ---------------------------------------------------------------------------

class Submodule:
    """A rank-graded subspace of a parent module, closed under the action."""

    def __init__(self, parent, spans):
        self.parent = parent
        self.spans = spans  # rank -> (basis rows, pivots), canonical reduced

    def dims(self):
        return {n: len(self.spans[n][0]) for n in sorted(self.spans)}

    def contains(self, rank, vec):
        basis, pivots = self.spans[rank]
        return span_coords(self.parent.field, basis, pivots, vec) is not None

    def contains_submodule(self, other):
        if other.parent is not self.parent:
            return False
        for n, (basis, _) in other.spans.items():
            for row in basis:
                if not self.contains(n, row):
                    return False
        return True

    def as_module(self, name=None):
        """The submodule as a TruncatedModule in its own basis."""
        parent = self.parent
        field = parent.field
        spans = self.spans
        dims = {n: len(spans[n][0]) for n in spans}

        def act_fn(mor):
            src_basis, _ = spans[mor.src]
            dst_basis, dst_pivots = spans[mor.dst]
            big = parent.act(mor)
            cols = []
            for b in src_basis:
                w = [field.zero] * big.rows
                for r, c in big.apply_column(field, [(k, x) for k, x in enumerate(b) if x]).items():
                    w[r] = c
                coords = span_coords(field, dst_basis, dst_pivots, w)
                if coords is None:
                    raise InvariantViolation("submodule is not closed under the action")
                cols.append([(i, c) for i, c in enumerate(coords) if c])
            return SparseMap(dims[mor.dst], dims[mor.src], cols)

        return TruncatedModule(
            parent.cat, field, parent.max_rank, dims, act_fn,
            kind="generic", name=name or ("sub(%s)" % parent.name),
        )

    def __repr__(self):
        return "Submodule(%s, dims=%s)" % (self.parent.name, self.dims())


def _apply_action(module, mor, vec, bits):
    if bits:
        cols = module.act_bits(mor)
        w = 0
        x = vec
        while x:
            j = (x & -x).bit_length() - 1
            w ^= cols[j]
            x &= x - 1
        return w
    return module.act(mor).apply_column(module.field, vec.items())


def submodule_closure(parent, generators, max_rank=None, budget=None):
    """The smallest truncated submodule of parent containing the generators.

    Generators are (rank, vector) pairs.  Each pass walks n upward and, for
    every m <= n, pushes each current basis row at rank m along every
    non-identity morphism m -> n, unless the span at n is already the whole
    space.  Passes repeat until one adds nothing, so
    the last pass is the check that the result is a fixed point; each pass
    that adds a vector raises the total dimension, which is bounded.
    """
    field = parent.field
    cat = parent.cat
    nmax = parent.max_rank if max_rank is None else nonneg_int(max_rank, "closure rank")
    if nmax > parent.max_rank:
        raise PreconditionError("closure rank %d exceeds the truncation %d" % (nmax, parent.max_rank))
    bits = field.p == 2
    builders = {n: SpanBuilder(field, parent.dims[n]) for n in range(nmax + 1)}
    for rank, vec in generators:
        if not isinstance(rank, int) or rank < 0 or rank > nmax:
            raise PreconditionError("generator rank %r is outside 0..%d" % (rank, nmax))
        vec = tuple(field.of(x) for x in vec)
        if len(vec) != parent.dims[rank]:
            raise PreconditionError("generator at rank %d has length %d, expected %d" % (rank, len(vec), parent.dims[rank]))
        builders[rank].add(vec)

    grew = True
    while grew:
        grew = False
        for n in range(nmax + 1):
            idn = cat.identity(n)
            for m in range(n + 1):
                rows = list(builders[m].rows.values())
                if not rows or builders[n].dim() == parent.dims[n]:
                    continue
                for f in cat.hom(m, n, budget=budget):
                    if f == idn:
                        continue
                    for row in rows:
                        grew |= builders[n].add(_apply_action(parent, f, row, bits))
    spans = {n: builders[n].basis() for n in range(nmax + 1)}
    return Submodule(parent, spans)


# ---------------------------------------------------------------------------
# Initial terms over the ordered categories
# ---------------------------------------------------------------------------

def _truncated_rank(module, rank):
    """rank, when it is an integer in 0..N of the module's truncation."""
    if nonneg_int(rank, "rank") > module.max_rank:
        raise PreconditionError("rank %r is outside the truncation 0..%d" % (rank, module.max_rank))
    return rank


def init_of(module, rank, vec):
    """The initial term of an element of P_d: its leading coefficient times
    the largest basis morphism present in the staged total order; init(0) = 0.
    """
    field = module.field
    _truncated_rank(module, rank)
    vec = tuple(field.of(x) for x in vec)
    if len(vec) != module.dims[rank]:
        raise PreconditionError("element at rank %d has length %d, expected %d" % (rank, len(vec), module.dims[rank]))
    best = init_positions(module, rank, vec)
    return tuple(vec[best] if pos == best else field.zero for pos in range(len(vec)))


def init_positions(module, rank, vec):
    """The basis position of the initial term, or None for the zero vector."""
    field = module.field
    keys = module.total_keys(_truncated_rank(module, rank))
    best = None
    for pos, x in enumerate(vec):
        if field.of(x) != field.zero and (best is None or keys[pos] > keys[best]):
            best = pos
    return best


def init_module(sub):
    """Per rank, the leading basis positions attained by the span.

    Eliminating the span with columns ordered by descending total key makes
    the pivot columns exactly the attainable initial positions, so the
    initial module at each rank is the span of those basis vectors.
    """
    parent = sub.parent
    field = parent.field
    out = {}
    for n in sorted(sub.spans):
        rows, _ = sub.spans[n]
        if not rows:
            out[n] = ()
            continue
        keys = parent.total_keys(n)
        width = parent.dims[n]
        order = sorted(range(width), key=lambda pos: keys[pos], reverse=True)
        permuted = [tuple(row[order[t]] for t in range(width)) for row in rows]
        out[n] = tuple(sorted(order[t] for t in SpanBuilder(field, width, permuted).rows))
    return out


def init_gap_check(n_sub, m_sub):
    """Compare a verified pair N <= M of submodules through initial terms.

    Reports per rank whether the initial spans and the subspaces agree, and
    asserts the implication: equal initial spans force equal subspaces.
    """
    if n_sub.parent is not m_sub.parent:
        raise PreconditionError("init comparison needs submodules of one parent")
    if sorted(n_sub.spans) != sorted(m_sub.spans):
        raise PreconditionError("init comparison needs a common truncation")
    if not m_sub.contains_submodule(n_sub):
        raise PreconditionError("the first submodule is not contained in the second")
    init_n = init_module(n_sub)
    init_m = init_module(m_sub)
    per_rank = {}
    all_init_equal = True
    all_span_equal = True
    for n in sorted(n_sub.spans):
        rows_n, _ = n_sub.spans[n]
        rows_m, _ = m_sub.spans[n]
        init_equal = init_n[n] == init_m[n]
        span_equal = len(rows_n) == len(rows_m)  # containment holds, so equal dims mean equal spans
        if init_equal and not span_equal:
            raise InvariantViolation("equal initial spans with unequal submodules at rank %d" % n)
        per_rank[n] = {
            "init_equal": init_equal,
            "span_equal": span_equal,
            "init_positions_sub": list(init_n[n]),
            "init_positions_super": list(init_m[n]),
            "dim_sub": len(rows_n),
            "dim_super": len(rows_m),
        }
        all_init_equal = all_init_equal and init_equal
        all_span_equal = all_span_equal and span_equal
    if all_init_equal and not all_span_equal:
        raise InvariantViolation("equal initial modules with unequal submodules")
    return {
        "per_rank": per_rank,
        "inits_equal": all_init_equal,
        "modules_equal": all_span_equal,
        "truncation": n_sub.parent.max_rank,
    }


# ---------------------------------------------------------------------------
# Shift complexes
# ---------------------------------------------------------------------------

VARIANTS = ("plain", "prime", "double", "triple")


def _perm_sign(perm):
    inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm)) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def _shift_group(cat, variant, p, budget=None):
    """The identification group on the p leading slots, with signs.

    "prime" identifies along per-slot automorphisms (sign +1), "double"
    along slot permutations (permutation sign), "triple" along both.
    """
    if variant == "plain" or p == 0:
        return [(cat.identity(p), 1)]
    elements = []
    if variant in ("double", "triple"):
        perm_mors = [
            (cat.block_permutation((1,) * p, perm), _perm_sign(perm))
            for perm in permutations(range(p))
        ]
    else:
        perm_mors = [(cat.identity(p), 1)]
    if variant in ("prime", "triple"):
        auts1 = cat.aut(1, budget=budget)
        aut_mors = []
        for combo in product(auts1, repeat=p):
            acc = cat.identity(0)
            for a in combo:
                acc = cat.monoidal_sum(acc, a)
            aut_mors.append(acc)
    else:
        aut_mors = [cat.identity(p)]
    for pm, sign in perm_mors:
        for am in aut_mors:
            elements.append((cat.compose(pm, am), sign))
    return elements


def _orbit_tables(cat, m, n, group, budget=None):
    """Representatives and the projection table (signs, rep_of) of a free
    right action on hom(m, n): arrays over its positions (Category.position)
    of orbit signs and representative indices.  A slot reached twice means
    the action is not free.  Each basis element is composed once, which the
    hom enumeration that produced the basis was charged for."""
    basis = cat.hom(m, n, budget)
    if len(group) == 1:
        return basis, (array("b", [1]) * len(basis), array("i", range(len(basis))))
    pos = cat.position(m, n, budget)
    signs = array("b", [0]) * len(basis)  # 0 until the slot's orbit is built
    rep_of = array("i", [0]) * len(basis)
    reps = []
    for t, u in enumerate(basis):
        if signs[t]:
            continue
        for g, sign in group:
            s = pos[cat.key(cat.compose(u, g))]
            if signs[s]:
                raise InvariantViolation("shift identification group does not act freely")
            signs[s], rep_of[s] = sign, len(reps)
        reps.append(u)
    if 0 in signs:
        raise InvariantViolation("orbit projection does not cover the basis")
    return tuple(reps), (signs, rep_of)


def _skip_inclusion(cat, i, p):
    """s_i: the inclusion of p-1 slots into p slots omitting slot i (1-based)."""
    return cat.slot_inclusion(tuple(t for t in range(p) if t != i - 1), p)


class ShiftComplex:
    """Chain spaces and differentials of a shift complex, all ranks <= N.

    spaces[(p, n)] is the basis label tuple of (Sigma_p M)_n for 0 <= p <= q;
    diffs[(p, n)] is the sparse differential (Sigma_p M)_n -> (Sigma_{p-1} M)_n
    for 1 <= p <= q.  d o d = 0 is verified at construction, on integer sums:
    over Q each differential is first scaled by the lcm of its denominators.

    proj[(p, n)] holds two arrays over the positions of hom(p + d, n): orbit
    signs and representative indices (read one at a time by rep_index).  On
    the complement route (d = 0) blocks[(p, n)] lists per representative h
    the (offset, complement rank, complement) of its labels (h, b).
    """

    def __init__(self, module, variant, route, q, spaces, diffs, proj, blocks):
        self.module = module
        self.variant = variant
        self.route = route
        self.q = q
        self.spaces = spaces
        self.diffs = diffs
        self.proj = proj
        self.blocks = blocks

    def dim(self, p, n):
        return len(self.spaces[(p, n)])

    def diff(self, p, n):
        return self.diffs[(p, n)]

    def rep_index(self, p, n, mor):
        """The index of the orbit representative of mor, a morphism of hom(p + d, n)."""
        cat = self.module.cat
        return self.proj[(p, n)][1][cat.position(mor.src, n)[cat.key(mor)]]

    def __repr__(self):
        return "ShiftComplex(%s, %s, q=%d, N=%d)" % (self.module.name, self.variant, self.q, self.module.max_rank)


def _complement_blocks(cat, module, reps):
    """The labels (h, b), b a basis index of M at h's complement rank, and
    per representative h the (offset, complement rank, complement) of its block."""
    labels = []
    blocks = []
    for h in reps:
        rank, j = cat.complement_of(h)
        blocks.append((len(labels), rank, j))
        labels.extend((h, b) for b in range(module.dims[rank]))
    return tuple(labels), blocks


def shift_complex(module, q, variant="plain", budget=None):
    """Build the shift complex of a module up to chain degree q.

    A representable module P_d takes the route "representable": it realizes
    (Sigma_p P_d)_n on the orbits of hom(p + d, n).  Any other module takes
    the route "complement": it assembles the chain spaces over the orbits
    of hom(p, n) from M at explicit complements of each representative.
    Both routes take the faces of a representative u as the keys of the
    composites u . (s_i + id_d), with sign (-1)^(i+1) times the orbit sign; a
    face adds its coefficient at its orbit on the representable route, and
    on the complement route the action of the map between the two
    complements.  Each column is summed in a dict of raw numbers and reduced
    into the field once per entry.
    """
    cat = module.cat
    field = module.field
    if variant not in VARIANTS:
        raise PreconditionError("unknown shift variant %r; use one of %s" % (variant, ", ".join(VARIANTS)))
    if not cat.is_complemented:
        raise PreconditionError("shift complexes need a complemented category, not %s" % cat.describe())
    if variant in ("double", "triple") and not cat.is_symmetric:
        raise PreconditionError("variant %r needs a symmetric instance" % variant)
    if nonneg_int(q, "chain degree bound") > module.max_rank:
        raise PreconditionError("chain degree bound %d exceeds the truncation %d" % (q, module.max_rank))
    route = "representable" if module.kind == "representable" else "complement"
    on_complement = route == "complement"
    d = 0 if on_complement else module.gen_rank
    widen = cat.identity(d)

    groups = {}
    for p in range(q + 1):
        group = _shift_group(cat, variant, p, budget=budget)
        groups[p] = group if len(group) == 1 or not d else [
            (cat.monoidal_sum(g, widen), sign) for g, sign in group
        ]
    steps = {
        p: [cat.monoidal_sum(_skip_inclusion(cat, i, p), widen) for i in range(1, p + 1)] for p in range(1, q + 1)
    }
    spaces = {}
    diffs = {}
    proj = {}
    blocks = {}
    for n in range(module.max_rank + 1):
        for p in range(q + 1):
            reps, proj[(p, n)] = _orbit_tables(cat, p + d, n, groups[p], budget)
            if not on_complement:
                spaces[(p, n)] = reps
            else:
                spaces[(p, n)], blocks[(p, n)] = _complement_blocks(cat, module, reps)
                if len(groups[p]) > 1:
                    for h, r in zip(cat.hom(p, n), proj[(p, n)][1]):
                        rank_h, j_h = cat.complement_of(h)
                        _, rank_r, j_r = blocks[(p, n)][r]
                        if rank_h != rank_r or cat.key(j_h) != cat.key(j_r):
                            raise InvariantViolation("complements differ within one identification orbit")
            if not p:
                continue
            pos_lo = cat.position(p - 1 + d, n)
            signs_lo, rep_lo = proj[(p - 1, n)]
            blocks_lo = blocks.get((p - 1, n))
            blocks_hi = blocks.get((p, n))
            starts, row_of, coef = array("i", [0]), array("i"), []
            for j, faces in enumerate(cat.precompose_each(reps, steps[p])):
                if on_complement:
                    _, rank_h, j_h = blocks_hi[j]
                    block = [{} for _ in range(module.dims[rank_h])]
                else:
                    block = [{}]
                for i, k in enumerate(faces, 1):
                    t = pos_lo[k]
                    r = rep_lo[t]
                    coeff = signs_lo[t] if i % 2 == 1 else -signs_lo[t]
                    if not on_complement:
                        block[0][r] = block[0].get(r, 0) + coeff
                        continue
                    off_t, _, j_t = blocks_lo[r]
                    act = module.act(cat.factor_through(j_t, j_h))
                    for acc, (a, b) in zip(block, pairwise(act.starts)):
                        for k, rr in enumerate(act.row_of[a:b], a):
                            acc[off_t + rr] = acc.get(off_t + rr, 0) + coeff * act.coef[k]
                for acc in block:
                    col = _reduced_column(field, acc)
                    row_of.extend(col)
                    coef.extend(col.values())
                    starts.append(len(row_of))
            diffs[(p, n)] = SparseMap.packed(len(spaces[(p - 1, n)]), starts, row_of, coef)
            if p >= 2 and not _composite_vanishes(field, diffs[(p - 1, n)], diffs[(p, n)]):
                raise InvariantViolation("d o d != 0 at degree %d, rank %d (%s)" % (p, n, variant))
    return ShiftComplex(module, variant, route, q, spaces, diffs, proj, blocks)


# ---------------------------------------------------------------------------
# Homology and exactness
# ---------------------------------------------------------------------------

def complex_homology(cplx, v_rank, up_to_degree):
    """Homology dimensions H_0..H_{up_to_degree} of the complex at one rank.

    H_0 sits at the module spot of ... -> (Sigma_1 M)_V -> M_V -> 0.
    """
    module = cplx.module
    field = module.field
    _truncated_rank(module, v_rank)
    if nonneg_int(up_to_degree, "degree bound") >= cplx.q:
        raise PreconditionError(
            "degree bound %r needs the complex built past it (q = %d)" % (up_to_degree, cplx.q)
        )
    out = {}
    rank_below = 0
    for i in range(up_to_degree + 1):
        dim_i = cplx.dim(i, v_rank)
        rank_above = cplx.diff(i + 1, v_rank).rank(field)
        h = dim_i - rank_below - rank_above
        if h < 0:
            raise InvariantViolation("negative homology dimension at degree %d, rank %d" % (i, v_rank))
        out["H%d" % i] = h
        rank_below = rank_above
    return out


def homology_report(cplx, v_rank, up_to_degree):
    """The homology table wrapped with its provenance and truncation."""
    return {
        "cat": cplx.module.cat.describe(),
        "module": cplx.module.name,
        "variant": cplx.variant,
        "rank": v_rank,
        "dims": complex_homology(cplx, v_rank, up_to_degree),
        "truncation": cplx.module.max_rank,
    }


def _stable_from(flags):
    """The least n with flags[n:] all true, or None when the last flag is false."""
    n = len(flags)
    while n and flags[n - 1]:
        n -= 1
    return n if n < len(flags) else None


def exactness_report(cplx, up_to_degree):
    """Vanishing of H_0..H_{up_to_degree} across all ranks <= N.

    Reports the least rank from which every tested larger rank is exact,
    and flags monotonicity anomalies (vanishing that fails again later);
    anomalies are reported, never raised.
    """
    module = cplx.module
    nmax = module.max_rank
    per_rank = {}
    zero_at = []
    for n in range(nmax + 1):
        dims = complex_homology(cplx, n, up_to_degree)
        all_zero = all(v == 0 for v in dims.values())
        per_rank[n] = {"dims": dims, "all_zero": all_zero}
        zero_at.append(all_zero)
    anomalies = []
    seen_zero = False
    for n in range(nmax + 1):
        if zero_at[n]:
            seen_zero = True
        elif seen_zero:
            anomalies.append(n)
    return {
        "cat": module.cat.describe(),
        "module": module.name,
        "variant": cplx.variant,
        "up_to_degree": up_to_degree,
        "per_rank": per_rank,
        "threshold": _stable_from(zero_at),
        "anomalies": anomalies,
        "truncation": nmax,
    }


# ---------------------------------------------------------------------------
# Stabilization chain homotopy
# ---------------------------------------------------------------------------

def _rotate_last(cat, mor):
    """Append a fresh slot to mor's source and rotate it to the front.

    The composite sends slot 0 of the enlarged source to the appended last
    target factor and slot t+1 through mor's slot t, so precomposing with
    the first-slot inclusion recovers the stabilization.
    """
    total = mor.src + 1
    widened = cat.monoidal_sum(mor, cat.identity(1))
    rotation = cat.block_permutation((1,) * total, tuple(range(1, total)) + (0,))
    return cat.compose(widened, rotation)


def chain_homotopy_check(module, v_rank, budget=None):
    """Verify dG + Gd = stabilization on the plain shift complex at one rank.

    G sends a basis morphism u to its widening with a fresh slot rotated to
    the front; degree 0 reduces to d_1 G = I.  Also checks the consequence:
    every homology class maps to zero one rank up under stabilization.
    """
    cat = module.cat
    field = module.field
    if not cat.is_symmetric:
        raise PreconditionError("the chain homotopy needs a symmetric instance, not %s" % cat.describe())
    if nonneg_int(v_rank, "rank") + 1 > module.max_rank:
        raise PreconditionError("rank %d + 1 exceeds the truncation %d" % (v_rank, module.max_rank))
    q = v_rank + 1
    cplx = shift_complex(module, q, "plain", budget=budget)
    iota = cat.canonical(v_rank, v_rank + 1)
    on_complement = cplx.route == "complement"

    def column(p, h, inc, b):
        """The basis column of (Sigma_p M)_{v+1} at the label of h; on the
        complement route, basis vector b carried along inc into h's block."""
        r = cplx.rep_index(p, v_rank + 1, h)
        if not on_complement:
            return ((r, field.one),)
        off, _, j = cplx.blocks[(p, v_rank + 1)][r]
        return tuple((off + rr, x) for rr, x in module.act(cat.factor_through(j, inc)).column(b))

    g_maps = {}
    stab_maps = {}
    for p in range(q):
        g_cols = []
        stab_cols = []
        for label in cplx.spaces[(p, v_rank)]:
            if on_complement:
                h, b = label
                inc = cat.compose(iota, cplx.blocks[(p, v_rank)][cplx.rep_index(p, v_rank, h)][2])
            else:
                h, b, inc = label, None, None
            g_cols.append(column(p + 1, _rotate_last(cat, h), inc, b))
            stab_cols.append(column(p, cat.compose(iota, h), inc, b))
        g_maps[p] = SparseMap(cplx.dim(p + 1, v_rank + 1), cplx.dim(p, v_rank), g_cols)
        stab_maps[p] = SparseMap(cplx.dim(p, v_rank + 1), cplx.dim(p, v_rank), stab_cols)

    per_degree = {}
    for p in range(q):
        d_above = cplx.diff(p + 1, v_rank + 1)
        ok = True
        for j in range(cplx.dim(p, v_rank)):
            acc = d_above.accumulate({}, g_maps[p].column(j))
            if p >= 1:
                g_maps[p - 1].accumulate(acc, cplx.diff(p, v_rank).column(j))
            if _reduced_column(field, acc) != dict(stab_maps[p].column(j)):
                ok = False
                break
        per_degree[p] = ok

    induced = {}
    for i in range(q):
        dim_i = cplx.dim(i, v_rank)
        if i == 0:
            cycles = [[(j, field.one)] for j in range(dim_i)]
        else:
            kernel = kernel_vectors(field, cplx.diff(i, v_rank).row_dicts(), dim_i)
            cycles = [[(t, x) for t, x in enumerate(z) if x] for z in kernel]
        d_above = cplx.diff(i + 1, v_rank + 1)
        boundaries = SpanBuilder(field, d_above.rows, (dict(d_above.column(j)) for j in range(d_above.cols)))
        induced[i] = all(boundaries.contains(stab_maps[i].apply_column(field, z)) for z in cycles)

    return {
        "cat": cat.describe(),
        "module": module.name,
        "rank": v_rank,
        "q": q,
        "route": cplx.route,
        "homotopy": per_degree,
        "homotopy_ok": all(per_degree.values()),
        "induced_zero": induced,
        "induced_zero_ok": all(induced.values()),
        "truncation": module.max_rank,
    }


# ---------------------------------------------------------------------------
# Finite generation
# ---------------------------------------------------------------------------

def generation_degree(module, budget=None):
    """Per rank, whether d_1: (Sigma_1 M)_V -> M_V is onto, and the least
    rank from which it stays onto within the truncation."""
    field = module.field
    cplx = shift_complex(module, 1, "plain", budget=budget)
    per_rank = {}
    for n in range(module.max_rank + 1):
        dim0 = cplx.dim(0, n)
        per_rank[n] = dim0 == 0 or cplx.diff(1, n).rank(field) == dim0
    return {
        "cat": module.cat.describe(),
        "module": module.name,
        "per_rank": per_rank,
        "stable_from": _stable_from(list(per_rank.values())),
        "truncation": module.max_rank,
    }
