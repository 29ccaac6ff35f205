"""Matrix kernel tests: determinants, inverses, kernels, adapted profiles,
and the unique factorization of surjections.

Oracles: exhaustive enumeration of small matrix spaces, brute-force kernels
and span sets, and independent GL counting formulas.
"""

import random
from itertools import combinations, permutations, product as iproduct

import pytest

from ficat.errors import PreconditionError
from ficat.matrices import (
    Mat,
    block_diag,
    column_adapted,
    det,
    factor_surjection,
    hstack,
    inverse,
    is_surjective,
    _selection,
    kernel_basis,
    lift_mats,
    mul_cols_by,
    mul_cols_data,
    mul_rows_by,
    local_parts,
    mul_rows_data,
    row_adapted,
    try_inverse,
)
from ficat.rings import make_ring
from oracles import column_span_set


def all_mats(ring, rows, cols):
    for data in iproduct(range(ring.size), repeat=rows * cols):
        yield Mat(ring, rows, cols, data)


def perm_det(m):
    """Leibniz expansion in the ring of m."""
    R = m.ring
    n = m.rows
    acc = R.zero
    for perm in permutations(range(n)):
        term = R.one
        for i in range(n):
            term = R.mul(term, m.entry(i, perm[i]))
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        acc = R.add(acc, R.neg(term) if inversions % 2 else term)
    return acc


def minor_factor(m):
    """The factorization of a surjection by the maximal-minor search, or None
    when m is not onto.

    Per local factor: the lexicographically least column subset with a unit
    maximal minor gives f2, and f1 = adj(f2) / det(f2) * f.  An onto map has
    a unit maximal minor in every local factor.
    """
    dec = m.ring.local
    d = m.rows
    f1s, f2s = [], []
    for i, fac in enumerate(dec.factors):
        mi = Mat(fac, d, m.cols, tuple(dec.project(x)[i] for x in m.data))
        cols = next((c for c in combinations(range(m.cols), d)
                     if fac.is_unit(perm_det(mi.submatrix(range(d), c)))), None)
        if cols is None:
            return None
        a = mi.submatrix(range(d), cols)
        adj = [[perm_det(a.submatrix([t for t in range(d) if t != c], [t for t in range(d) if t != r]))
                for c in range(d)] for r in range(d)]
        adj = [[x if (r + c) % 2 == 0 else fac.neg(x) for c, x in enumerate(row)] for r, row in enumerate(adj)]
        s = fac.inverse(perm_det(a))
        inv = Mat(fac, d, d, tuple(fac.mul(s, x) for row in adj for x in row))
        f1s.append(inv.mul(mi))
        f2s.append(a)

    def lift(mats):
        return Mat(m.ring, mats[0].rows, mats[0].cols,
                   tuple(dec.lift(xs) for xs in zip(*(t.data for t in mats))))

    return lift(f1s), lift(f2s)


def brute_kernel_set(m):
    R = m.ring
    out = set()
    for v in iproduct(range(R.size), repeat=m.cols):
        if all(x == R.zero for x in m.mul(Mat(R, m.cols, 1, v)).data):
            out.add(v)
    return out


def test_det_small_examples():
    z4 = make_ring("Z/4")
    m = Mat.from_rows(z4, [[2, 3], [1, 3]])
    assert det(m) == (2 * 3 - 3 * 1) % 4 == 3
    assert det(Mat.identity(z4, 3)) == 1
    assert det(Mat(z4, 0, 0, ())) == 1


def test_det_multiplicative_exhaustive_2x2_z4():
    z4 = make_ring("Z/4")
    mats = list(all_mats(z4, 2, 2))
    dets = {m.data: det(m) for m in mats}
    for a in mats:
        for b in mats:
            assert dets[a.mul(b).data] == z4.mul(dets[a.data], dets[b.data])


def test_det_matches_permutation_expansion_3x3():
    z6 = make_ring("Z/6")
    rng_mats = [
        Mat.from_rows(z6, [[1, 2, 3], [4, 5, 0], [2, 2, 1]]),
        Mat.from_rows(z6, [[5, 1, 1], [0, 3, 2], [4, 4, 4]]),
        Mat.identity(z6, 3),
    ]
    for m in rng_mats:
        assert det(m) == perm_det(m)


def test_det_matches_leibniz_sizes_0_to_5():
    rng = random.Random(7)
    for spec in ["Z/4", "Z/12", "Z/2 x Z/9"]:
        ring = make_ring(spec)
        for n in range(6):
            for _ in range(25):
                m = Mat(ring, n, n, tuple(rng.randrange(ring.size) for _ in range(n * n)))
                assert det(m) == perm_det(m), m


def test_det_multiplicative_12x12_z12():
    z12 = make_ring("Z/12")
    rng = random.Random(12)
    for _ in range(10):
        a, b = (Mat(z12, 12, 12, tuple(rng.randrange(12) for _ in range(144))) for _ in range(2))
        assert det(a.mul(b)) == z12.mul(det(a), det(b))
    assert det(Mat.identity(z12, 12)) == 1
    assert try_inverse(Mat.identity(z12, 12)) is not None


def test_inverse_roundtrip_gl2_z4():
    z4 = make_ring("Z/4")
    eye = Mat.identity(z4, 2)
    count = 0
    for m in all_mats(z4, 2, 2):
        inv = try_inverse(m)
        if inv is not None:
            count += 1
            assert m.mul(inv) == eye
            assert inv.mul(m) == eye
            assert z4.is_unit(det(m))
        else:
            assert not z4.is_unit(det(m))
    # |GL_2(Z/4)| = 4^(2*2) det-unit count; independent formula 2^(1*4)*|GL_2(F_2)| = 16*6
    assert count == 96


@pytest.mark.parametrize("spec,n", [("Z/8", 2), ("Z/9", 2), ("Z/2", 3), ("Z/3", 3)])
def test_inverse_matches_leibniz_det(spec, n):
    ring = make_ring(spec)
    eye = Mat.identity(ring, n)
    for m in all_mats(ring, n, n):
        inv = try_inverse(m)
        assert (inv is None) == (not ring.is_unit(perm_det(m))), m
        if inv is not None:
            assert m.mul(inv) == eye and inv.mul(m) == eye, m


def test_inverse_crt_ring():
    z6 = make_ring("Z/6")
    eye = Mat.identity(z6, 2)
    m = Mat.from_rows(z6, [[1, 2], [3, 4]])  # det = 4 - 6 = 4 mod 6, not a unit
    assert try_inverse(m) is None
    m2 = Mat.from_rows(z6, [[1, 2], [4, 3]])  # det = 3 - 8 = 1 mod 6... recompute: 1*3-2*4 = -5 = 1
    assert det(m2) == 1
    inv = inverse(m2)
    assert m2.mul(inv) == eye
    with pytest.raises(PreconditionError):
        inverse(m)


def test_local_parts_and_lift_mats_are_inverse():
    # local_parts projects entry by entry through the ring's decomposition,
    # and lift_mats recombines the parts by CRT
    rng = random.Random(15)
    for spec in ["Z/4", "Z/6", "Z/12", "Z/60", "Z/2 x Z/3", "Z/2 x Z/2 x Z/2", "Z/12 x Z/18"]:
        ring = make_ring(spec)
        dec = ring.local
        for rows, cols in [(0, 0), (0, 2), (2, 0), (1, 3), (3, 2)]:
            m = Mat(ring, rows, cols, tuple(rng.randrange(ring.size) for _ in range(rows * cols)))
            parts = local_parts(m)
            assert [p.ring for p in parts] == list(dec.factors)
            for i, p in enumerate(parts):
                assert (p.rows, p.cols) == (rows, cols)
                assert p.data == tuple(dec.project(x)[i] for x in m.data)
            assert lift_mats(ring, parts) == m
            assert parts[0] is m or not ring.is_local
    with pytest.raises(PreconditionError):
        lift_mats(make_ring("Z/6"), [Mat.identity(make_ring("Z/2"), 1)])
    # a kernel with no columns keeps its n rows
    for spec in ["Z/4", "Z/6"]:
        K = kernel_basis(Mat.identity(make_ring(spec), 2))
        assert (K.rows, K.cols) == (2, 0)


def test_is_surjective_examples():
    z4 = make_ring("Z/4")
    assert is_surjective(Mat.from_rows(z4, [[2, 3]]))
    assert not is_surjective(Mat.from_rows(z4, [[2, 0]]))
    assert is_surjective(Mat.from_rows(z4, [[1, 0], [0, 1]]))
    z6 = make_ring("Z/6")
    assert is_surjective(Mat.from_rows(z6, [[3, 5]]))
    # 3 generates only {0,3} in the Z/2-factor... 3 is 1 mod 2 and 0 mod 3; 2 is 0 mod 2, 2 mod 3
    assert is_surjective(Mat.from_rows(z6, [[3, 2]]))
    assert not is_surjective(Mat.from_rows(z6, [[3, 3]]))


def test_surjective_matches_brute_image():
    # oracle: actual image enumeration
    for spec, shape in [("Z/4", (1, 2)), ("Z/6", (1, 2)), ("Z/4", (2, 3))]:
        ring = make_ring(spec)
        rows, cols = shape
        for m in all_mats(ring, rows, cols):
            image = {m.mul(Mat(ring, cols, 1, v)).data for v in iproduct(range(ring.size), repeat=cols)}
            assert is_surjective(m) == (len(image) == ring.size ** rows)


def test_surjective_and_factor_match_minor_oracle():
    # every matrix of every shape up to 2 x 3
    for spec in ["Z/4", "Z/6", "Z/8", "Z/2 x Z/3"]:
        ring = make_ring(spec)
        for rows in (1, 2):
            for cols in (1, 2, 3):
                for m in all_mats(ring, rows, cols):
                    want = minor_factor(m)
                    assert is_surjective(m) == (want is not None), m
                    if want is None:
                        with pytest.raises(PreconditionError):
                            factor_surjection(m)
                    else:
                        assert factor_surjection(m) == want, m


def test_kernel_basis_spans_brute_kernel():
    for spec, shape in [("Z/4", (1, 2)), ("Z/6", (1, 2)), ("Z/4", (2, 3)), ("Z/6", (2, 3))]:
        ring = make_ring(spec)
        rows, cols = shape
        for m in all_mats(ring, rows, cols):
            if not is_surjective(m):
                continue
            K = kernel_basis(m)
            assert K.rows == cols and K.cols == cols - rows
            span = column_span_set(K)
            assert span == brute_kernel_set(m)


def test_column_adapted_examples():
    z16 = make_ring("Z/16")
    p = column_adapted(Mat.from_rows(z16, [[2, 1]]))
    assert p is not None and p.report() == [[2]]
    assert column_adapted(Mat.from_rows(z16, [[3, 1]])) is None
    assert column_adapted(Mat.from_rows(z16, [[1, 2]])) is not None
    z4 = make_ring("Z/4")
    assert column_adapted(Mat.identity(z4, 3)).report() == [[1, 2, 3]]
    # pivots must be increasing: rows swapped is not adapted
    m = Mat.from_rows(z4, [[0, 1], [1, 0]])
    assert column_adapted(m) is None
    # per-factor profiles over a product ring
    z6 = make_ring("Z/6")
    # entries: CRT(1 mod 2, 0 mod 3) = 3 and CRT(1,1) = 1
    m = Mat.from_rows(z6, [[3, 1]])
    p = column_adapted(m)
    assert p is not None
    assert p.report() == [[1], [2]]
    assert row_adapted(m.transpose()) == p


def brute_adapted(m):
    """Every increasing pivot tuple meeting the column-adapted definition
    over a local ring."""
    f = m.ring
    d = m.rows
    return [
        s for s in combinations(range(m.cols), d)
        if all(m.col(c) == tuple(f.one if t == r else f.zero for t in range(d))
               and not any(f.is_unit(m.entry(r, t)) for t in range(c))
               for r, c in enumerate(s))
    ]


def test_column_adapted_brute_consistency():
    # a map is adapted iff every local factor has a pivot tuple meeting the
    # definition, and the detected profile is that (unique) tuple
    for spec, shape in [("Z/4", (1, 2)), ("Z/4", (2, 3)), ("Z/6", (1, 2))]:
        ring = make_ring(spec)
        rows, cols = shape
        for m in all_mats(ring, rows, cols):
            brute = [brute_adapted(part) for part in local_parts(m)]
            p = column_adapted(m)
            if not all(brute):
                assert p is None, m
                continue
            assert all(len(b) == 1 for b in brute), m
            assert p is not None and p.per_factor == tuple(b[0] for b in brute), m


def test_factor_surjection_worked_examples():
    z4 = make_ring("Z/4")
    f = Mat.from_rows(z4, [[2, 3]])
    f1, f2 = factor_surjection(f)
    assert f1.to_rows() == [[2, 1]]
    assert f2.to_rows() == [[3]]
    z6 = make_ring("Z/6")
    g = Mat.from_rows(z6, [[3, 5]])
    g1, g2 = factor_surjection(g)
    assert g1.to_rows() == [[3, 1]]
    assert g2.to_rows() == [[5]]
    with pytest.raises(PreconditionError):
        factor_surjection(Mat.from_rows(z4, [[2, 0]]))


def test_factor_surjection_unique_brute():
    # oracle: over all invertible g the pair (g^{-1} f, g) with adapted first
    # factor must exist and be unique
    for spec in ["Z/4", "Z/6"]:
        ring = make_ring(spec)
        units_mats = [m for m in all_mats(ring, 1, 1) if try_inverse(m) is not None]
        for f in all_mats(ring, 1, 2):
            if not is_surjective(f):
                continue
            found = []
            for g in units_mats:
                cand = inverse(g).mul(f)
                if column_adapted(cand) is not None:
                    found.append((cand, g))
            assert len(found) == 1
            f1, f2 = factor_surjection(f)
            assert (f1, f2) == found[0]


def test_adapted_composition_closure():
    # composite of column-adapted maps is column-adapted, with composed pivots
    for spec in ["Z/2", "Z/4"]:
        ring = make_ring(spec)
        adapted_23 = [m for m in all_mats(ring, 2, 3) if column_adapted(m) is not None]
        adapted_12 = [m for m in all_mats(ring, 1, 2) if column_adapted(m) is not None]
        for g in adapted_23:  # map R^3 -> R^2
            (sg,) = column_adapted(g).per_factor
            for f in adapted_12:  # map R^2 -> R^1
                (sf,) = column_adapted(f).per_factor
                comp = f.mul(g)  # map R^3 -> R^1
                p = column_adapted(comp)
                assert p is not None
                assert p.per_factor == (tuple(sg[t] for t in sf),)


def test_adapted_composition_closure_product_ring():
    ring = make_ring("Z/6")
    adapted_23 = [m for m in all_mats(ring, 2, 3) if column_adapted(m) is not None]
    adapted_12 = [m for m in all_mats(ring, 1, 2) if column_adapted(m) is not None]
    # spot-check a deterministic slice to keep runtime sane
    for g in adapted_23[::7]:
        pg = column_adapted(g)
        for f in adapted_12[::3]:
            pf = column_adapted(f)
            comp = f.mul(g)
            p = column_adapted(comp)
            assert p is not None
            for k in range(2):
                assert p.per_factor[k] == tuple(pg.per_factor[k][t] for t in pf.per_factor[k])


def test_mat_mul_shapes_and_blocks():
    z2 = make_ring("Z/2")
    a = Mat.from_rows(z2, [[1, 0], [1, 1]])
    b = Mat.from_rows(z2, [[1], [1]])
    assert a.mul(b).to_rows() == [[1], [0]]
    with pytest.raises(PreconditionError):
        b.mul(a)
    c = hstack(a, b)
    assert c.to_rows() == [[1, 0, 1], [1, 1, 1]]


def ring_sum_product(a, b):
    """a * b entry by entry, summed with the ring's own add and mul."""
    R = a.ring
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = R.zero
            for t in range(a.cols):
                acc = R.add(acc, R.mul(a.entry(i, t), b.entry(t, j)))
            row.append(acc)
        rows.append(row)
    return rows


def test_mat_mul_matches_ring_sum_oracle():
    """Mat.mul against the ring's add/mul: every 2x2 product over four
    rings, seeded shapes up to 5x6 over rings of one and of two moduli, and
    the empty shapes."""
    for spec in ("Z/4", "Z/6", "Z/2 x Z/2", "Z/2 x Z/3"):
        R = make_ring(spec)
        vecs = list(iproduct(range(R.size), repeat=2))
        dot = {(u, v): ring_sum_product(Mat(R, 1, 2, u), Mat(R, 2, 1, v))[0][0]
               for u in vecs for v in vecs}
        mats = list(all_mats(R, 2, 2))
        cols = [(b.data[0::2], b.data[1::2]) for b in mats]
        for a in mats:
            r0, r1 = a.row(0), a.row(1)
            want = [(dot[r0, c0], dot[r0, c1], dot[r1, c0], dot[r1, c1]) for c0, c1 in cols]
            assert [a.mul(b).data for b in mats] == want
    rng = random.Random(7)
    for spec in ("Z/12", "Z/9", "Z/2 x Z/9"):
        R = make_ring(spec)
        for _ in range(300):
            n, k, m = rng.randint(1, 5), rng.randint(1, 6), rng.randint(1, 6)
            # about half of the entries zero, so the skipped terms are covered
            a, b = (Mat(R, r, c, tuple(rng.randrange(R.size) if rng.random() < 0.5 else 0
                                       for _ in range(r * c)))
                    for r, c in ((n, k), (k, m)))
            prod = a.mul(b)
            assert (prod.rows, prod.cols) == (n, m)
            assert prod.to_rows() == ring_sum_product(a, b)
        for n, k, m in ((0, 3, 2), (0, 0, 4), (3, 0, 2), (2, 0, 0), (0, 2, 0)):
            a = Mat(R, n, k, tuple(rng.randrange(R.size) for _ in range(n * k)))
            b = Mat(R, k, m, tuple(rng.randrange(R.size) for _ in range(k * m)))
            assert a.mul(b) == Mat.zeros(R, n, m)


def test_block_diag_places_blocks_and_checks_the_ring():
    z6, z3 = make_ring("Z/6"), make_ring("Z/3")
    a = Mat.from_rows(z6, [[1, 2, 3]])
    b = Mat.from_rows(z6, [[4], [5]])
    empty = Mat(z6, 0, 2, ())
    assert block_diag(z6, [a, empty, b]).to_rows() == [
        [1, 2, 3, 0, 0, 0],
        [0, 0, 0, 0, 0, 4],
        [0, 0, 0, 0, 0, 5],
    ]
    assert block_diag(z6, [empty, empty]) == Mat(z6, 0, 4, ())
    assert block_diag(z6, []) == Mat(z6, 0, 0, ())
    with pytest.raises(PreconditionError):
        block_diag(z6, [a, Mat.identity(z3, 1)])
    with pytest.raises(PreconditionError):
        block_diag(z3, [Mat.identity(z6, 1)])


def test_batched_products_match_mul():
    """mul_rows_by and mul_cols_by equal one Mat.mul per matrix, and
    mul_rows_data and mul_cols_data its data.

    The fixed factor runs over every matrix of every shape up to 2x2, empty
    shapes included, so both the selection path (every column, or row, a unit
    vector: identities, permutations, slot inclusions, repeated slots) and
    the memo path are taken.  Each batch mixes row counts 0..2 and repeats
    rows and columns across its matrices.
    """
    rng = random.Random(11)
    paths = set()
    for spec in ("Z/4", "Z/6", "Z/2 x Z/2"):
        R = make_ring(spec)
        for k, m in iproduct(range(3), repeat=2):
            batch = []
            for r in range(3):
                pool = list(all_mats(R, r, k))
                batch += pool if len(pool) <= 8 else rng.sample(pool, 8)
            batch_t = [a.transpose() for a in batch]
            for right in all_mats(R, k, m):
                want = [a.mul(right) for a in batch]
                assert mul_rows_by(batch, right) == want
                assert mul_rows_data(batch, right) == [c.data for c in want]
                left = right.transpose()
                want = [left.mul(b) for b in batch_t]
                assert mul_cols_by(left, batch_t) == want
                assert mul_cols_data(left, batch_t) == [c.data for c in want]
                assert mul_rows_by([], right) == [] and mul_cols_by(left, []) == []
                assert mul_rows_data([], right) == [] and mul_cols_data(left, []) == []
                paths.add(_selection([right.col(j) for j in range(m)], R) is None)
    assert paths == {True, False}


def test_batched_products_raise_as_mul():
    z4, z22 = make_ring("Z/4"), make_ring("Z/2 x Z/2")
    a = Mat.identity(z4, 2)
    cases = [
        (Mat.zeros(z4, 2, 3), a),  # shape
        (Mat.identity(z22, 2), a),  # ring of the same size
    ]
    for x, y in cases:
        with pytest.raises(PreconditionError) as want:
            x.mul(y)
        for call in (lambda: mul_rows_by([a, x], y), lambda: mul_cols_by(x, [a, y]),
                     lambda: mul_rows_data([a, x], y), lambda: mul_cols_data(x, [a, y])):
            with pytest.raises(PreconditionError) as got:
                call()
            assert str(got.value) == str(want.value)
