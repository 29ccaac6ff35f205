"""Brute-force oracles shared by more than one test module.

Each one enumerates what it describes outright, so it stays independent of
the echelon forms, closed-form counts and orbit tables under test.
"""

from itertools import product as iproduct

from ficat.matrices import Mat, det
from ficat.si import SymplecticForm


def column_span_set(m):
    """The column span of m: every R-linear combination of its columns, as a set of tuples."""
    R = m.ring
    cols = [m.col(j) for j in range(m.cols)]
    out = set()
    for coeffs in iproduct(range(R.size), repeat=m.cols):
        v = [R.zero] * m.rows
        for c, col in zip(coeffs, cols):
            if c:
                for k in range(m.rows):
                    if col[k]:
                        v[k] = R.add(v[k], R.mul(c, col[k]))
        out.add(tuple(v))
    return out


def symplectic_forms(ring, n):
    """All symplectic (alternating nondegenerate) forms on R^{2n}, by brute
    force over the strictly upper triangle."""
    dim = 2 * n
    spots = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    out = []
    for vals in iproduct(range(ring.size), repeat=len(spots)):
        rows = [[ring.zero] * dim for _ in range(dim)]
        for (i, j), v in zip(spots, vals):
            rows[i][j] = v
            rows[j][i] = ring.neg(v)
        gram = Mat.from_rows(ring, rows) if dim else Mat.zeros(ring, 0, 0)
        if ring.is_unit(det(gram)):
            out.append(SymplecticForm(gram))
    return out


def canonical_orbit(cat, r, n):
    """(orbit, stabilizer) of the canonical inclusion r -> n under
    postcomposition by aut(n): the set of keys of g . can over g in aut(n),
    and the number of g that fix can."""
    can = cat.canonical(r, n)
    keys = [k for k, in cat.precompose_each(cat.aut(n), [can])]
    return set(keys), keys.count(cat.key(can))
