"""Exact matrices over finite commutative rings.

A Mat is an immutable rows x cols array of ring element indices (row major).
A matrix with r rows and c cols represents a module map R^c -> R^r acting on
column vectors.

Over a local ring Z/p^k a square matrix is invertible exactly when its
reduction mod p is, so one reduced echelon form with unit pivots
(_local_rref) decides every local question: inverses, surjectivity, kernels
and the factorization of surjections all read it off.  local_parts splits a
matrix into its images in the local factors of the ring and lift_mats
recombines one matrix per factor by CRT; no other code moves a matrix into
or out of the factors.  Every local factor is Z/q with its elements the
residues 0..q-1, so the echelon does its arithmetic on those integers mod q.
Products and determinants split the ring into its moduli instead: each entry
of a product is summed as an integer on the residues of one modulus and
reduced once, and determinants need no pivoting: integer Bareiss elimination
on each modulus, reduced at the end.
"""

from itertools import chain
from operator import itemgetter

from .errors import InvariantViolation, PreconditionError


class Mat:
    """Immutable matrix over a FiniteRing."""

    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring, rows, cols, data):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.data = data
        if len(data) != rows * cols:
            raise PreconditionError("%dx%d matrix given %d entries" % (rows, cols, len(data)))

    @classmethod
    def from_rows(cls, ring, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise PreconditionError("ragged matrix rows")
            for x in row:
                ring.check_element(x)
                flat.append(x)
        return cls(ring, r, c, tuple(flat))

    @classmethod
    def from_cols(cls, ring, cols):
        if not cols:
            return cls(ring, 0, 0, ())
        r = len(cols[0])
        if r == 0:
            return cls(ring, 0, len(cols), ())
        return cls.from_rows(ring, [[col[i] for col in cols] for i in range(r)])

    @classmethod
    def identity(cls, ring, n):
        one, zero = ring.one, ring.zero
        return cls(ring, n, n, tuple(one if i == j else zero for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, ring, rows, cols):
        return cls(ring, rows, cols, (ring.zero,) * (rows * cols))

    def entry(self, i, j):
        return self.data[i * self.cols + j]

    def row(self, i):
        return self.data[i * self.cols:(i + 1) * self.cols]

    def col(self, j):
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self):
        return Mat(
            self.ring,
            self.cols,
            self.rows,
            tuple(self.data[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def mul(self, other):
        """self * other on the integer residues of each modulus of the ring,
        each entry summed as a Python int and reduced once; over several
        moduli the reduced residues are encoded by one sum with the strides."""
        _check_product(self, other)
        R = self.ring
        n, k, m = self.rows, self.cols, other.cols
        if len(R.moduli) == 1:
            return Mat(R, n, m, _residue_product(self.data, other.data, n, k, m, R.moduli[0]))
        data = [0] * (n * m)
        for res, q, s in zip(R.residues, R.moduli, R._strides):
            part = _residue_product([res[x] for x in self.data], [res[x] for x in other.data], n, k, m, q)
            data = [y + s * x for y, x in zip(data, part)]
        return Mat(R, n, m, tuple(data))

    def neg(self):
        rneg = self.ring.neg
        return Mat(self.ring, self.rows, self.cols, tuple(rneg(x) for x in self.data))

    def submatrix(self, row_idx, col_idx):
        return Mat(
            self.ring,
            len(row_idx),
            len(col_idx),
            tuple(self.data[i * self.cols + j] for i in row_idx for j in col_idx),
        )

    def insert_col(self, pos, col):
        if len(col) != self.rows or not 0 <= pos <= self.cols:
            raise PreconditionError("column of length %d cannot go at %r" % (len(col), pos))
        rows = []
        for i in range(self.rows):
            row = list(self.row(i))
            row.insert(pos, col[i])
            rows.append(row)
        return Mat.from_rows(self.ring, rows) if rows else Mat(self.ring, 0, self.cols + 1, ())

    def delete_rows(self, idxs):
        drop = set(idxs)
        rows = [list(self.row(i)) for i in range(self.rows) if i not in drop]
        if not rows:
            return Mat(self.ring, 0, self.cols, ())
        return Mat.from_rows(self.ring, rows)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and other.ring == self.ring
            and other.rows == self.rows
            and other.cols == self.cols
            and other.data == self.data
        )

    def __hash__(self):
        return hash((self.ring.spec, self.rows, self.cols, self.data))

    def __repr__(self):
        return "Mat(%s, %s)" % (self.ring.spec, self.to_rows())


def _check_product(a, b):
    if a.ring is not b.ring:
        raise PreconditionError("matrix product over different rings")
    if a.cols != b.rows:
        raise PreconditionError(
            "shape mismatch in matrix product: %dx%d times %dx%d" % (a.rows, a.cols, b.rows, b.cols)
        )


def _residue_product(a, b, n, k, m, q):
    """Row-major n x m product mod q of the n x k and k x m integer data,
    skipping zero entries of a."""
    out = []
    for i in range(n):
        arow = a[i * k:(i + 1) * k]
        for j in range(m):
            acc = 0
            t = j
            for x in arow:
                if x:
                    acc += x * b[t]
                t += m
            out.append(acc % q)
    return tuple(out)


# ----- batched products with one fixed factor -----

def _selection(vecs, ring):
    """Where the one sits in each vector when all are unit vectors, else None."""
    out = []
    for v in vecs:
        if v.count(0) != len(v) - 1 or ring.one not in v:
            return None
        out.append(v.index(ring.one))
    return out


def _picker(idx):
    """data -> the tuple of its entries at idx, by one itemgetter."""
    return itemgetter(*idx) if len(idx) > 1 else lambda data: tuple(data[i] for i in idx)


def mul_rows_data(mats, right):
    """The data of a.mul(right) for a in mats, multiplying each distinct row
    once; when right's columns are unit vectors, picking entries by one
    itemgetter a shape."""
    for a in mats:
        _check_product(a, right)
    R, k, m = right.ring, right.rows, right.cols
    sel = _selection([right.col(j) for j in range(m)], R)
    memo = {}  # row -> row * right, or row count -> picker
    out = []
    for a in mats:
        if sel is not None:
            if a.rows not in memo:
                memo[a.rows] = _picker([i * k + s for i in range(a.rows) for s in sel])
            data = memo[a.rows](a.data)
        else:
            data = ()
            for i in range(a.rows):
                row = a.data[i * k:(i + 1) * k]
                if row not in memo:
                    memo[row] = Mat(R, 1, k, row).mul(right).data
                data += memo[row]
        out.append(data)
    return out


def mul_cols_data(left, mats):
    """The data of left.mul(b) for b in mats, multiplying each distinct column
    once; when left's rows are unit vectors, picking entries by one
    itemgetter a shape."""
    for b in mats:
        _check_product(left, b)
    R, n, k = left.ring, left.rows, left.cols
    sel = _selection([left.row(i) for i in range(n)], R)
    memo = {}  # column -> left * column, or column count -> picker
    out = []
    for b in mats:
        m = b.cols
        if sel is not None:
            if m not in memo:
                memo[m] = _picker([s * m + j for s in sel for j in range(m)])
            data = memo[m](b.data)
        else:
            cols = []
            for j in range(m):
                col = b.data[j::m]
                if col not in memo:
                    memo[col] = left.mul(Mat(R, k, 1, col)).data
                cols.append(memo[col])
            data = tuple(chain.from_iterable(zip(*cols)))
        out.append(data)
    return out


def mul_rows_by(mats, right):
    """[a.mul(right) for a in mats], by mul_rows_data."""
    R, m = right.ring, right.cols
    return [Mat(R, a.rows, m, data) for a, data in zip(mats, mul_rows_data(mats, right))]


def mul_cols_by(left, mats):
    """[left.mul(b) for b in mats], by mul_cols_data."""
    R, n = left.ring, left.rows
    return [Mat(R, n, b.cols, data) for b, data in zip(mats, mul_cols_data(left, mats))]


def hstack(a, b):
    if a.ring != b.ring or a.rows != b.rows:
        raise PreconditionError("hstack needs equal row counts over one ring")
    rows = [list(a.row(i)) + list(b.row(i)) for i in range(a.rows)]
    if not rows:
        return Mat(a.ring, 0, a.cols + b.cols, ())
    return Mat.from_rows(a.ring, rows)


def block_diag(ring, mats):
    """The block diagonal matrix of mats, all over ring."""
    cols = sum(m.cols for m in mats)
    data = []
    c0 = 0
    for m in mats:
        if m.ring is not ring:
            raise PreconditionError("block_diag block over %s, not %s" % (m.ring.spec, ring.spec))
        left, right = (ring.zero,) * c0, (ring.zero,) * (cols - c0 - m.cols)
        for i in range(m.rows):
            data += left
            data += m.data[i * m.cols:(i + 1) * m.cols]
            data += right
        c0 += m.cols
    return Mat(ring, sum(m.rows for m in mats), cols, tuple(data))


# ----- determinants -----

def _bareiss(data, n):
    """Integer determinant of the n x n row-major data (Bareiss 1968).

    Fraction-free elimination: after step k every entry is a (k+1)-minor of
    the input, so each division is exact.
    """
    a = [list(data[i * n:(i + 1) * n]) for i in range(n)]
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        rowk = a[k]
        piv = rowk[k]
        for rowi in a[k + 1:]:
            x = rowi[k]
            for j in range(k + 1, n):
                rowi[j] = (piv * rowi[j] - x * rowk[j]) // prev
        prev = piv
    return sign * a[n - 1][n - 1] if n else 1


def det(m):
    """Determinant of a square matrix of any size.

    Integer Bareiss elimination on the residues of each modulus of the ring,
    then reduction: exact, because det commutes with Z -> Z/n.
    """
    if m.rows != m.cols:
        raise PreconditionError("determinant of a non-square matrix")
    R = m.ring
    if len(R.moduli) == 1:
        return _bareiss(m.data, m.rows) % R.moduli[0]
    return R.encode(tuple(
        _bareiss([res[x] for x in m.data], m.rows) % q for res, q in zip(R.residues, R.moduli)
    ))


# ----- local factors -----

def local_parts(m):
    """The images of m in the local factors of its ring, in factor order;
    (m,) when the ring is local."""
    ring = m.ring
    dec = ring.local
    if dec.factors[0] is ring:
        return (m,)
    return tuple(
        Mat(fac, m.rows, m.cols, tuple(proj[x] for x in m.data))
        for fac, proj in zip(dec.factors, dec._proj)
    )


def lift_mats(ring, mats):
    """CRT-recombine one matrix per local factor of ring, the inverse of
    local_parts; the one matrix itself when the ring is local."""
    dec = ring.local
    if len(mats) != len(dec.factors):
        raise PreconditionError("need one matrix per local factor of %s" % ring.spec)
    if dec.factors[0] is ring:
        return mats[0]
    rows, cols = mats[0].rows, mats[0].cols
    if any(m.rows != rows or m.cols != cols for m in mats):
        raise PreconditionError("local factor matrices differ in shape")
    return Mat(ring, rows, cols, tuple(map(dec.lift, zip(*(m.data for m in mats)))))


def _local_rref(m):
    """Reduced row echelon form over a local ring with unit pivots.

    Returns (pivot column tuple, row list).  Pivoting greedily takes, for each
    column left to right, the first unused row holding a unit there.  The
    ring is a local factor Z/q, so entries are reduced as integers mod q.
    """
    R = m.ring
    q = R.size
    units = frozenset(R.units())
    nrows, ncols = m.rows, m.cols
    rows = [list(m.data[i * ncols:(i + 1) * ncols]) for i in range(nrows)]
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if rows[i][c] in units), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = R.inverse(rows[r][c])
        prow = rows[r] = [inv * x % q for x in rows[r]]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(pivots), rows


def _local_inverse(m):
    """Inverse over a local ring, or None when m is not invertible."""
    n = m.rows
    data = m.data
    aug = ()
    for i in range(n):
        aug += data[i * n:(i + 1) * n] + (0,) * i + (1,) + (0,) * (n - 1 - i)
    pivots, rows = _local_rref(Mat(m.ring, n, 2 * n, aug))
    if pivots != tuple(range(n)):
        return None
    return Mat(m.ring, n, n, tuple([x for row in rows for x in row[n:]]))


def try_inverse(m):
    """Inverse of a square matrix, or None when it is not invertible."""
    if m.rows != m.cols:
        raise PreconditionError("inverse of a non-square matrix")
    if m.rows == 0:
        return Mat(m.ring, 0, 0, ())
    locs = []
    for part in local_parts(m):
        inv = _local_inverse(part)
        if inv is None:
            return None
        locs.append(inv)
    return lift_mats(m.ring, locs)


def inverse(m):
    inv = try_inverse(m)
    if inv is None:
        raise PreconditionError("matrix is not invertible")
    return inv


# ----- surjectivity, kernels -----

def is_surjective(m):
    """Is the map R^cols -> R^rows given by m onto.

    Equivalent to a unit pivot in every row of the echelon form over every
    local factor.
    """
    if m.rows > m.cols:
        return False
    return all(len(_local_rref(part)[0]) == m.rows for part in local_parts(m))


def _local_kernel(m):
    """Kernel basis of a surjective d x n matrix over a local ring, as an
    n x (n-d) matrix of columns."""
    d, n = m.rows, m.cols
    pivots, rows = _local_rref(m)
    if len(pivots) != d:
        raise PreconditionError("kernel_basis requires a surjective matrix")
    R = m.ring
    piv_set = set(pivots)
    free = [c for c in range(n) if c not in piv_set]
    basis = []
    for c in free:
        v = [R.zero] * n
        v[c] = R.one
        for i, p in enumerate(pivots):
            v[p] = R.neg(rows[i][c])
        basis.append(v)
    return Mat(R, n, len(free), tuple(chain.from_iterable(zip(*basis))))


def kernel_basis(m):
    """Basis of ker(m) for a surjective map, as an n x (n-d) matrix of columns.

    Deterministic: per local factor, reduced echelon form with greedy unit
    pivots; one kernel vector per free column; CRT across factors.
    """
    K = lift_mats(m.ring, [_local_kernel(part) for part in local_parts(m)])
    prod = m.mul(K)
    if any(x != m.ring.zero for x in prod.data):
        raise InvariantViolation("kernel basis does not annihilate the matrix")
    return K


# ----- column-adapted maps -----

class ColumnProfile:
    """Pivot profile of a column-adapted map, one pivot tuple per local factor.

    Pivot indices are 0-based internally; report() renders them 1-based.
    """

    __slots__ = ("per_factor",)

    def __init__(self, per_factor):
        self.per_factor = tuple(tuple(p) for p in per_factor)

    def report(self):
        return [[j + 1 for j in p] for p in self.per_factor]

    def __eq__(self, other):
        return isinstance(other, ColumnProfile) and other.per_factor == self.per_factor

    def __hash__(self):
        return hash(self.per_factor)

    def __repr__(self):
        return "ColumnProfile(%r)" % (self.report(),)


def _local_adapted(m):
    """Pivot tuple of a column-adapted d x n map over a local ring, else None.

    Column s_i must equal the i-th standard basis vector and every entry of
    row i strictly left of s_i must be a non-unit, with s_1 < ... < s_d.  A
    unit left of s_i in row i rules out an earlier copy of e_i, so s_i is the
    first column equal to e_i; one pass over the columns finds them all.
    """
    d, n = m.rows, m.cols
    R = m.ring
    data = m.data
    first = [None] * d
    for c in range(n):
        col = data[c::n]
        if col.count(R.zero) == d - 1 and R.one in col:
            i = col.index(R.one)
            if first[i] is None:
                first[i] = c
    if None in first or any(a >= b for a, b in zip(first, first[1:])):
        return None
    units = frozenset(R.units())
    for i, s in enumerate(first):
        if any(x in units for x in data[i * n:i * n + s]):
            return None
    return tuple(first)


def column_adapted(m):
    """ColumnProfile of m when m is column-adapted in every local factor, else None."""
    profiles = []
    for part in local_parts(m):
        p = _local_adapted(part)
        if p is None:
            return None
        profiles.append(p)
    return ColumnProfile(profiles)


def row_adapted(m):
    """Row profile: the column profile of the transpose."""
    return column_adapted(m.transpose())


def factor_surjection(m):
    """Unique factorization f = f2 * f1 of a surjection into a column-adapted
    map f1 followed by an invertible f2.

    Per local factor, one unit-pivot echelon decides everything: f is onto
    when every row gets a pivot, f2 is the submatrix on the pivot columns and
    f1 = f2^{-1} * f is the reduced echelon form itself.  The greedy pivots
    are the lexicographically least columns with an invertible maximal minor
    (the greedy basis of the column matroid over the residue field), which
    makes f1 column-adapted.  The factors are CRT-recombined.
    """
    d, n = m.rows, m.cols
    f1s, f2s = [], []
    for mi in local_parts(m):
        pivots, rows = _local_rref(mi)
        if len(pivots) != d:
            raise PreconditionError("factor_surjection requires a surjective matrix")
        f1s.append(Mat(mi.ring, d, n, tuple(x for row in rows for x in row)))
        f2s.append(mi.submatrix(range(d), pivots))
    f1 = lift_mats(m.ring, f1s)
    f2 = lift_mats(m.ring, f2s)
    if f2.mul(f1) != m:
        raise InvariantViolation("surjection factorization does not recompose")
    if column_adapted(f1) is None:
        raise InvariantViolation("adapted factor of a surjection is not column-adapted")
    return f1, f2

