"""Tests for truncated modules, shift complexes, homology and generation.

Oracles come first: independent combinatorial counts (derangements, falling
factorials, binomials), brute-force row spaces over small fields, ranks
over Q from nonzero minors, and a sampling oracle for initial positions.
The representable and complement shift routes cross-check each other
throughout.
"""

import random
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial

import pytest

from ficat.catcore import FiCategory
from ficat.errors import BudgetExceeded, InvariantViolation, PreconditionError
from ficat.rings import make_ring
from ficat.si import make_osi_category, make_si_category
from ficat.vic import VicCategory, VicMorphism, make_ovic_category, make_vic_category
from ficat.modhom import (
    CoefField,
    SpanBuilder,
    VARIANTS,
    SparseMap,
    Submodule,
    _composite_vanishes,
    _integral,
    _orbit_tables,
    _shift_group,
    chain_homotopy_check,
    coef_field,
    complex_homology,
    exactness_report,
    generation_degree,
    homology_report,
    init_gap_check,
    init_module,
    init_of,
    init_positions,
    kernel_vectors,
    representable,
    shift_complex,
    span_coords,
    submodule_closure,
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def derangements(n):
    """D_0, D_1, ... by the recurrence D_n = (n-1)(D_{n-1} + D_{n-2})."""
    if n == 0:
        return 1
    if n == 1:
        return 0
    a, b = 1, 0
    for m in range(2, n + 1):
        a, b = b, (m - 1) * (a + b)
    return b


def falling(n, p):
    """Number of injections of a p-set into an n-set."""
    if p > n:
        return 0
    return factorial(n) // factorial(n - p)


def brute_row_space(p, rows, width):
    """All vectors in the row space over F_p: every linear combination."""
    space = set()
    for combo in product(range(p), repeat=len(rows)):
        v = [0] * width
        for c, row in zip(combo, rows):
            for j, x in enumerate(row):
                v[j] = (v[j] + c * x) % p
        space.add(tuple(v))
    return space


def leibniz_det(mat):
    """Determinant in Fraction by the permutation expansion."""
    n = len(mat)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= Fraction(mat[i][j])
        total += term
    return total


def minor_rank(mat, cols):
    """Rank over Q as the largest k with a nonzero k x k minor."""
    for k in range(min(len(mat), cols), 0, -1):
        for rs in combinations(range(len(mat)), k):
            for cs in combinations(range(cols), k):
                if leibniz_det([[mat[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def oracle_rank(field, rows, width):
    """Rank from the size of the enumerated row space over F_p, from
    minors over Q."""
    if not field.p:
        return minor_rank(rows, width)
    size = len(brute_row_space(field.p, rows, width))
    rank = 0
    while field.p ** rank < size:
        rank += 1
    return rank


def dense_mat_vec(field, rows, v):
    """The product of a dense row-tuple matrix and a vector."""
    return tuple(field.of(sum(a * x for a, x in zip(row, v))) for row in rows)


def dense_rows(field, sm):
    """A SparseMap as dense row tuples."""
    rows = [[field.zero] * sm.cols for _ in range(sm.rows)]
    for j, col in enumerate(sm.columns):
        for r, c in col:
            rows[r][j] = c
    return tuple(tuple(r) for r in rows)


def random_matrix(rng, field, rows, cols):
    if field.p:
        return [tuple(field.of(rng.randrange(field.p)) for _ in range(cols)) for _ in range(rows)]
    return [tuple(field.of(rng.randrange(-3, 4)) for _ in range(cols)) for _ in range(rows)]


def check_functoriality(module, up_to):
    """Exhaustively check act(id) = I and act(g . f) = act(g) act(f) for all
    ranks up to up_to; returns the number of composable pairs checked."""
    cat, field = module.cat, module.field
    for n in range(up_to + 1):
        assert module.act(cat.identity(n)).row_dicts() == [{j: field.one} for j in range(module.dims[n])], n
    pairs = 0
    for a in range(up_to + 1):
        for b in range(a, up_to + 1):
            for c in range(b, up_to + 1):
                for f in cat.hom(a, b):
                    act_f = module.act(f)
                    for g in cat.hom(b, c):
                        left, act_g = module.act(cat.compose(g, f)), module.act(g)
                        for j in range(left.cols):
                            assert dict(left.column(j)) == act_g.apply_column(field, act_f.column(j)), (a, b, c)
                        pairs += 1
    return pairs


def zero_module(cat, max_rank, field):
    """The zero module at every rank: the closure of no generators in P_0."""
    return submodule_closure(representable(cat, 0, max_rank, field), []).as_module()


# ---------------------------------------------------------------------------
# Coefficient fields
# ---------------------------------------------------------------------------

def test_coef_field_parsing_and_arithmetic():
    assert coef_field("Q").p == 0
    assert coef_field("rationals").p == 0
    assert coef_field("F2").p == 2
    assert coef_field("GF(5)").p == 5
    assert coef_field("7").p == 7
    assert coef_field(3).p == 3
    assert coef_field(coef_field("F2")) == CoefField(2)
    with pytest.raises(PreconditionError):
        coef_field("F4")
    with pytest.raises(PreconditionError):
        coef_field("bogus")
    with pytest.raises(PreconditionError):
        CoefField(-1)

    f5 = CoefField(5)
    for a in range(1, 5):
        assert f5.mul(a, f5.inv(a)) == f5.one
    with pytest.raises(PreconditionError):
        f5.inv(0)
    f3 = CoefField(3)
    assert f3.of(Fraction(1, 2)) == 2 and f3.of(Fraction(-4, 5)) == 1 and f3.of(-1) == 2
    for bad in (Fraction(1, 3), 2.7, "1"):
        with pytest.raises(PreconditionError):
            f3.of(bad)
    q = CoefField(0)
    assert q.of(3) == Fraction(3) and q.of(Fraction(-4, 6)) == Fraction(-2, 3)
    for bad in (2.7, 1.0, "1/2", "3"):
        with pytest.raises(PreconditionError):
            q.of(bad)
    assert q.inv(Fraction(3, 2)) == Fraction(2, 3)
    assert q.sub(q.of(1), q.of(4)) == Fraction(-3)


def test_rref_kernel_and_rank_against_brute_force():
    rng = random.Random(20240817)
    for field in (CoefField(2), CoefField(3), CoefField(0)):
        for _ in range(30):
            rows = rng.randrange(0, 5)
            cols = rng.randrange(1, 5)
            mat = random_matrix(rng, field, rows, cols)
            sb = SpanBuilder(field, cols, mat)
            basis, pivots = sb.basis()
            assert len(basis) == len(pivots) == sb.dim()
            if field.p == 0:
                assert len(pivots) == minor_rank(mat, cols)
            assert list(pivots) == sorted(pivots)
            for i, (row, p) in enumerate(zip(basis, pivots)):
                assert row[p] == field.one
                for j, (row2, p2) in enumerate(zip(basis, pivots)):
                    if i != j:
                        assert row2[p] == field.zero
            # row space preserved in both directions
            for row in mat:
                assert span_coords(field, basis, pivots, row) is not None
            joined = list(mat) + list(basis)
            assert SpanBuilder(field, cols, joined).dim() == len(pivots)
            # kernel: right dimension, actually annihilated
            ker = kernel_vectors(field, mat, cols)
            assert len(ker) == cols - len(pivots)
            for v in ker:
                assert all(x == field.zero for x in dense_mat_vec(field, mat, v))
            if field.p in (2, 3) and rows and len(pivots) <= 6:
                space = brute_row_space(field.p, mat, cols)
                assert len(space) == field.p ** len(pivots)


def test_span_builder_tracks_dimension_and_membership():
    rng = random.Random(11)
    for field in (CoefField(2), CoefField(0)):
        sb = SpanBuilder(field, 4)
        assert sb.dim() == 0 and sb.contains((field.zero,) * 4)
        vecs = [random_matrix(rng, field, 1, 4)[0] for _ in range(8)]
        naive = []
        for v in vecs:
            before = oracle_rank(field, naive, 4)
            naive.append(v)
            grew = oracle_rank(field, naive, 4) > before
            assert sb.add(_to_builder(sb, v)) == grew
        basis, pivots = sb.basis()
        assert len(basis) == oracle_rank(field, vecs, 4)
        for v in vecs:
            assert span_coords(field, basis, pivots, v) is not None


def _to_builder(sb, vec):
    if sb.bits:
        b = 0
        for c, x in enumerate(vec):
            if x:
                b |= 1 << c
        return b
    return vec


def known_rank_columns(rng, field, rows, cols, rank):
    """cols columns of height rows spanning a space of exactly the given
    rank: basis column i is 1 at its own row and 0 at the rows of the basis
    columns before it, so the basis is independent, and every other column
    is a zero column, a repeat of an earlier one or a combination of the
    basis."""
    lead = rng.sample(range(rows), rank)
    if field.p:
        coeffs = [field.of(x) for x in range(field.p)]
    else:
        coeffs = [field.of(x) for x in (0, 1, -2, Fraction(3, 5), Fraction(-7, 2))]
    basis = []
    for i in range(rank):
        col = [rng.choice(coeffs) for _ in range(rows)]
        for r in lead[:i]:
            col[r] = field.zero
        col[lead[i]] = field.one
        basis.append(col)
    spots = set(rng.sample(range(cols), rank))
    placed = iter(basis)
    out = []
    for j in range(cols):
        pick = rng.random()
        if j in spots:
            out.append(next(placed))
        elif pick < 0.2 or not rank:
            out.append([field.zero] * rows)
        elif pick < 0.4 and out:
            out.append(list(rng.choice(out)))
        else:
            mix = [rng.choice(coeffs) for _ in range(rank)]
            out.append([field.of(sum(c * b[r] for c, b in zip(mix, basis))) for r in range(rows)])
    return out


def sparse_from_entries(field, rows, cols, entries):
    """A SparseMap from {(row, col): coefficient}, zeros dropped."""
    columns = [[] for _ in range(cols)]
    for (r, c), x in sorted(entries.items()):
        if x != field.zero:
            columns[c].append((r, x))
    return SparseMap(rows, cols, columns)


def sparse_from_columns(rows, columns):
    return SparseMap(rows, len(columns), [[(r, x) for r, x in enumerate(col) if x] for col in columns])


def test_sparse_map_roundtrip_and_rank():
    rng = random.Random(7)
    # SparseMap.rank streams columns on last-row pivots and SpanBuilder
    # eliminates rows on least-column pivots, so SpanBuilder is an
    # independent oracle here; both are checked against minors (Q) and the
    # enumerated row space (F_p), on random shapes and on maps far wider
    # than tall and far taller than wide
    for field in (CoefField(2), CoefField(3), CoefField(0)):
        shapes = [(rng.randrange(1, 6), rng.randrange(1, 6)) for _ in range(15)]
        for rows, cols in shapes + [(2, 7), (7, 2), (3, 8), (8, 3)]:
            entries = {}
            for r in range(rows):
                for c in range(cols):
                    if rng.random() < 0.4:
                        entries[(r, c)] = field.of(rng.randrange(0, 3))
            sm = sparse_from_entries(field, rows, cols, entries)
            dense = dense_rows(field, sm)
            for (r, c), v in entries.items():
                assert dense[r][c] == v
            rank = sm.rank(field)
            assert rank == SpanBuilder(field, cols, dense).dim() == oracle_rank(field, dense, cols)
    empty = sparse_from_entries(CoefField(0), 3, 0, {})
    assert empty.rank(CoefField(0)) == 0
    # maps of known rank: over F_2 past 64 rows and columns, so that the
    # packed columns and SpanBuilder's rows span several machine words; over
    # Q with non-integer entries; with zero and repeated columns throughout
    big = {2: [(70, 300, 50), (300, 70, 70), (130, 130, 129), (65, 65, 0)],
           3: [(12, 40, 9), (40, 12, 12), (20, 20, 19)],
           0: [(12, 40, 9), (40, 12, 12), (15, 15, 14)]}
    for p, cases in big.items():
        field = CoefField(p)
        for rows, cols, want in cases:
            columns = known_rank_columns(rng, field, rows, cols, want)
            sm = sparse_from_columns(rows, columns)
            dense = list(zip(*columns))
            assert sm.rank(field) == want == SpanBuilder(field, cols, dense).dim()
            assert sparse_from_columns(cols, dense).rank(field) == want
        if not p:
            assert any(isinstance(x, Fraction) and x.denominator > 1 for col in columns for x in col)
        for rows, cols in ((70, 90), (4, 3)):
            assert sparse_from_columns(rows, [[field.zero] * rows] * cols).rank(field) == 0
            col = [field.of(r % 3 + 1) for r in range(rows)]
            assert sparse_from_columns(rows, [col] * cols).rank(field) == 1


@pytest.mark.parametrize("p", [2, 3, 0])
def test_packed_columns_agree_with_dense_oracles(p):
    # the compressed columns round-trip their pair columns, and every reader
    # of the arrays agrees with the dense matrix: accumulate and apply_column
    # with the dense product, row_dicts with its rows, rank with SpanBuilder
    # on its rows and on its columns
    field = CoefField(p)
    rng = random.Random(1400 + p)
    coeffs = [field.zero, field.one, field.of(2), field.of(Fraction(-1, 3) if not p else -1)]
    shapes = [(0, 0), (4, 0), (0, 4), (1, 1), (3, 5), (6, 2), (7, 7)]
    for rows, cols in shapes + [(rng.randrange(1, 9), rng.randrange(1, 9)) for _ in range(12)]:
        dense = [list(row) for row in random_matrix(rng, field, rows, cols)]
        for j in rng.sample(range(cols), cols // 3):
            for row in dense:
                row[j] = field.zero
        columns = tuple(tuple((r, dense[r][j]) for r in range(rows) if dense[r][j]) for j in range(cols))
        sm = SparseMap(rows, cols, columns)
        assert (sm.rows, sm.cols, len(sm.starts)) == (rows, cols, cols + 1)
        assert len(sm.row_of) == len(sm.coef) == sum(map(len, columns))
        assert sm.columns == columns == tuple(sm.column(j) for j in range(cols))
        assert dense_rows(field, sm) == tuple(map(tuple, dense))
        assert sm.row_dicts() == [{j: x for j, x in enumerate(row) if x} for row in dense]
        assert sm.rank(field) == SpanBuilder(field, cols, dense).dim() == SpanBuilder(field, rows, zip(*dense)).dim()
        for _ in range(4):
            v = [rng.choice(coeffs) for _ in range(cols)]
            pairs = [(j, x) for j, x in enumerate(v) if x]
            want = dense_mat_vec(field, dense, v)
            assert list(sm.apply_column(field, pairs).items()) == [(r, x) for r, x in enumerate(want) if x]
            acc = sm.accumulate({r: 1 for r in range(rows)}, pairs)
            assert set(acc) == set(range(rows))
            assert [field.of(acc[r] - 1) for r in range(rows)] == list(want)
        integral = _integral(field, sm)
        if p:
            assert integral is sm
        else:
            assert integral.starts is sm.starts and integral.row_of is sm.row_of
            assert all(type(x) is int for x in integral.coef)
            if sm.coef:
                scale = Fraction(integral.coef[0]) / sm.coef[0]
                assert scale > 0 and list(integral.coef) == [scale * x for x in sm.coef]


def test_sparse_map_rejects_malformed_columns():
    f3 = CoefField(3)
    malformed = {  # (rows, cols, columns)
        "row past the last": (2, 1, [[(5, 1)]]),
        "row at the height": (2, 2, [[(0, 1)], [(2, 1)]]),
        "negative row": (2, 1, [[(0, 1), (-1, 1)]]),
        "stored zero": (2, 1, [[(0, 0)]]),
        "stored rational zero": (2, 1, [[(1, Fraction(0))]]),
        "repeated row": (2, 1, [[(1, 1), (1, 2)]]),
        "falling rows": (3, 2, [[(0, 1)], [(2, 1), (1, 1)]]),
        "a column more than declared": (2, 2, [[(0, 1)]] * 3),
        "row past a machine int": (3, 1, [[(2**40, 1)]]),
        "fractional row": (3, 1, [[(0.5, 1)]]),
        "entry that is not a pair": (3, 1, [[(1,)]]),
    }
    for rows, cols, columns in malformed.values():
        with pytest.raises(PreconditionError):
            SparseMap(rows, cols, columns)
    with pytest.raises(PreconditionError):
        SparseMap.packed(2, array("i", [0, 2]), array("i", [1, 0]), [1, 1])
    # rows may fall or repeat across a column boundary, and columns may be empty
    ok = SparseMap(3, 5, [[(2, 1)], [], [(0, 1), (1, 2)], [(0, 2)], [(1, 1), (2, 2)]])
    assert ok.rank(f3) == 3 and ok.row_dicts()[2] == {0: 1, 4: 2}
    assert list(ok.starts) == [0, 1, 1, 3, 4, 6] and list(ok.row_of) == [2, 0, 1, 0, 1, 2]


def _dict_with_zeros(rng, vec):
    """vec as {column: coefficient}, with some zero entries kept as keys."""
    return {c: x for c, x in enumerate(vec) if x or rng.random() < 0.5}


def test_echelon_input_forms_agree_with_brute_force():
    # a dense tuple, a dict (zero entries included) and, over F_2, a bit
    # mask give one echelon; membership is checked against the enumerated
    # row space (F_p) and against minors (Q)
    rng = random.Random(4242)
    for field in (CoefField(2), CoefField(3), CoefField(0)):
        for _ in range(25):
            width = rng.randrange(1, 6)
            mat = random_matrix(rng, field, rng.randrange(0, 5), width)
            forms = [mat, [_dict_with_zeros(rng, v) for v in mat]]
            if field.p == 2:
                forms.append([sum(1 << c for c, x in enumerate(v) if x) for v in mat])
            builders = [SpanBuilder(field, width, rows) for rows in forms]
            assert len({sb.basis() for sb in builders}) == 1
            assert {sb.dim() for sb in builders} == {oracle_rank(field, mat, width)}
            space = brute_row_space(field.p, mat, width) if field.p else None
            for probe in random_matrix(rng, field, 6, width) + mat:
                if field.p:
                    want = probe in space
                else:
                    want = minor_rank(mat + [probe], width) == minor_rank(mat, width)
                assert builders[0].contains(probe) == want
                assert builders[1].contains(_dict_with_zeros(rng, probe)) == want
                if field.p == 2:
                    assert builders[2].contains(sum(1 << c for c, x in enumerate(probe) if x)) == want


def test_kernel_vectors_from_sparse_rows():
    rng = random.Random(515)
    for field in (CoefField(2), CoefField(3), CoefField(0)):
        for _ in range(20):
            rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
            entries = {(r, c): field.of(rng.randrange(1, 3)) for r in range(rows) for c in range(cols)
                       if rng.random() < 0.4}
            sm = sparse_from_entries(field, rows, cols, entries)
            dense = dense_rows(field, sm)
            ker = kernel_vectors(field, sm.row_dicts(), cols)
            assert ker == kernel_vectors(field, dense, cols)
            assert len(ker) == cols - oracle_rank(field, dense, cols)
            for v in ker:
                assert all(x == field.zero for x in dense_mat_vec(field, dense, v))


def test_composite_vanishes_decides_on_integer_sums():
    """d o d = 0 is decided on integer sums: over F3 a sum of three ones
    vanishes and a single one does not; over Q each map is scaled by the lcm
    of its denominators, so halves that cancel vanish, and mixed
    denominators vanish exactly when they cancel."""
    f3, q = CoefField(3), CoefField(0)
    ones = SparseMap(1, 3, [[(0, 1)]] * 3)
    assert _composite_vanishes(f3, ones, SparseMap(3, 1, [[(0, 1), (1, 1), (2, 1)]]))
    assert _composite_vanishes(f3, ones, SparseMap(3, 1, [[(0, 2), (1, 2), (2, 2)]]))
    assert not _composite_vanishes(f3, ones, SparseMap(3, 1, [[(1, 1)]]))
    assert not _composite_vanishes(f3, ones, SparseMap(3, 2, [[(0, 1), (1, 1), (2, 1)], [(0, 2), (2, 2)]]))
    halves = SparseMap(1, 2, [[(0, Fraction(1, 2))], [(0, Fraction(-1, 2))]])
    assert _composite_vanishes(q, halves, SparseMap(2, 1, [[(0, Fraction(1)), (1, Fraction(1))]]))
    assert not _composite_vanishes(q, halves, SparseMap(2, 1, [[(0, Fraction(1)), (1, Fraction(-1))]]))
    mixed = SparseMap(1, 2, [[(0, Fraction(1, 2))], [(0, Fraction(1, 3))]])
    assert _composite_vanishes(q, mixed, SparseMap(2, 1, [[(0, Fraction(2)), (1, Fraction(-3))]]))
    assert _composite_vanishes(q, mixed, SparseMap(2, 1, [[(0, Fraction(1, 3)), (1, Fraction(-1, 2))]]))
    assert not _composite_vanishes(q, mixed, SparseMap(2, 1, [[(0, Fraction(1, 3)), (1, Fraction(-1, 3))]]))
    assert not _composite_vanishes(q, mixed, SparseMap(2, 1, [[(0, Fraction(1)), (1, Fraction(-1))]]))
    # against a dense product: a kernel of a random map composes to zero,
    # and one with an entry changed mostly does not
    rng = random.Random(1703)
    seen = set()
    for field in (CoefField(2), f3, q):
        for _ in range(60):
            rows, cols = rng.randrange(1, 5), rng.randrange(2, 6)
            entries = {}
            for r in range(rows):
                for c in range(cols):
                    if rng.random() < 0.6:
                        x = rng.randrange(-4, 5)
                        entries[(r, c)] = field.of(x if field.p else Fraction(x, rng.choice((1, 2, 3, 5))))
            outer = sparse_from_entries(field, rows, cols, entries)
            ker = [list(v) for v in kernel_vectors(field, outer.row_dicts(), cols)]
            if not ker:
                continue
            if rng.random() < 0.5:
                c = rng.randrange(cols)
                ker[-1][c] = field.of(ker[-1][c] + 1)
            inner = SparseMap(cols, len(ker), [[(c, x) for c, x in enumerate(v) if x] for v in ker])
            dense = dense_rows(field, outer)
            want = all(x == field.zero for v in ker for x in dense_mat_vec(field, dense, v))
            assert _composite_vanishes(field, outer, inner) == want
            seen.add((field.p, want))
    assert seen == {(p, want) for p in (2, 3, 0) for want in (True, False)}


def test_composite_vanishes_over_f2_on_parity():
    """Over F_2 d o d = 0 is decided on the XOR of bit-packed columns: a
    composite whose integer sums are even but nonzero vanishes, and one odd
    sum is enough for it not to."""
    f2 = CoefField(2)
    outer = SparseMap(2, 3, [[(0, 1), (1, 1)], [(0, 1)], [(1, 1)]])
    assert _composite_vanishes(f2, outer, SparseMap(3, 1, [[(0, 1), (1, 1), (2, 1)]]))
    assert _composite_vanishes(f2, outer, SparseMap(3, 2, [[], [(0, 1), (1, 1), (2, 1)]]))
    assert _composite_vanishes(f2, SparseMap(1, 2, [[(0, 1)], [(0, 1)]]), SparseMap(2, 1, [[(0, 1), (1, 1)]]))
    assert not _composite_vanishes(f2, outer, SparseMap(3, 1, [[(0, 1), (1, 1)]]))
    assert not _composite_vanishes(f2, outer, SparseMap(3, 2, [[(0, 1), (1, 1), (2, 1)], [(2, 1)]]))
    assert not _composite_vanishes(f2, outer, SparseMap(3, 1, [[(0, 1)]]))


def _sums_vanish_mod_2(outer, inner):
    # every entry of outer . inner as an integer sum, then taken mod 2
    return all(x % 2 == 0 for j in range(inner.cols) for x in outer.accumulate({}, inner.column(j)).values())


@pytest.mark.parametrize("cat,top", [(make_vic_category(make_ring("Z/2")), 3), (FiCategory(), 5)], ids=["VIC(Z/2)", "FI"])
def test_composite_vanishes_over_f2_agrees_with_integer_sums(cat, top):
    # on every pair of consecutive differentials, and on the same pair with
    # the last entry of one inner column dropped
    f2 = CoefField(2)
    cx = shift_complex(representable(cat, 0, top, f2), top)
    seen = set()
    for (p, n), inner in cx.diffs.items():
        if p < 2:
            continue
        outer = cx.diffs[(p - 1, n)]
        assert _composite_vanishes(f2, outer, inner) is _sums_vanish_mod_2(outer, inner) is True
        cols = list(inner.columns)
        for j, col in enumerate(cols):
            if col:
                broken = SparseMap(inner.rows, inner.cols, cols[:j] + [col[:-1]] + cols[j + 1:])
                want = _sums_vanish_mod_2(outer, broken)
                assert _composite_vanishes(f2, outer, broken) is want
                seen.add(want)
                break
    assert False in seen


def test_shift_complex_builds_no_morphism_per_face(monkeypatch):
    """The faces of a VIC complex are read as keys: with the hom sets
    cached, building the complex makes only its group and step morphisms."""
    cat = make_vic_category(make_ring("Z/2"))
    module = representable(cat, 0, 3, CoefField(2))
    for n in range(4):
        for m in range(n + 1):
            cat.hom(m, n)
    made = []
    init = VicMorphism.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(VicMorphism, "__init__", counting_init)
    cplx = shift_complex(module, 3)
    faces = sum(p * cplx.dim(p, n) for p, n in cplx.diffs)
    assert faces > 500
    assert len(made) <= 40


# ---------------------------------------------------------------------------
# Representable modules
# ---------------------------------------------------------------------------

def test_representable_dimensions_match_hom_counts():
    F = FiCategory()
    Q = coef_field("Q")
    P0 = representable(F, 0, 4, Q)
    P1 = representable(F, 1, 4, Q)
    assert [P0.dims[n] for n in range(5)] == [1, 1, 1, 1, 1]
    assert [P1.dims[n] for n in range(5)] == [falling(n, 1) for n in range(5)]

    R2 = make_ring("Z/2")
    V2 = make_vic_category(R2)
    P1v = representable(V2, 1, 3, coef_field("F2"))
    assert [P1v.dims[n] for n in range(4)] == [0, 1, 6, 28]

    S2 = make_si_category(R2)
    P1s = representable(S2, 1, 2, coef_field("F2"))
    assert [P1s.dims[n] for n in range(3)] == [0, 6, 120]


def test_representable_action_matrix_by_hand():
    # FI, P1 at the canonical inclusion [1] -> [2]: e_u goes to e_{iota . u},
    # so the image of the unique rank-1 basis injection is the injection
    # hitting slot 0 of [2].
    F = FiCategory()
    Q = coef_field("Q")
    P1 = representable(F, 1, 2, Q)
    iota = F.canonical(1, 2)
    mat = P1.act(iota)
    u = P1.labels[1][0]
    v = F.compose(iota, u)
    idx = F.position(1, 2)[F.key(v)]
    assert (mat.rows, mat.cols) == (2, 1)
    assert mat.columns == (((idx, Q.one),),)


def test_functoriality_exhaustive_small():
    F = FiCategory()
    P1 = representable(F, 1, 3, coef_field("Q"))
    assert check_functoriality(P1, up_to=3) > 0

    R2 = make_ring("Z/2")
    P1v = representable(make_vic_category(R2), 1, 2, coef_field("F2"))
    assert check_functoriality(P1v, up_to=2) > 0

    O2 = make_ovic_category(R2)
    P1o = representable(O2, 1, 3, coef_field("F2"))
    assert check_functoriality(P1o, up_to=3) > 0


def test_zero_module_and_budget():
    F = FiCategory()
    Z = zero_module(F, 3, "Q")
    assert all(Z.dims[n] == 0 for n in range(4))
    act = Z.act(F.identity(2))
    assert (act.rows, act.cols, act.columns) == (0, 0, ())

    # a fresh category instance has a cold hom cache, so enumeration charges
    R2 = make_ring("Z/2")
    fresh = VicCategory(R2)
    with pytest.raises(BudgetExceeded):
        representable(fresh, 1, 3, "F2", budget=10)


def test_module_act_rejects_morphisms_beyond_truncation():
    F = FiCategory()
    P0 = representable(F, 0, 2, "Q")
    with pytest.raises(PreconditionError):
        P0.act(F.canonical(2, 3))


# ---------------------------------------------------------------------------
# Shift complexes: dimensions and d o d = 0
# ---------------------------------------------------------------------------

def test_plain_shift_dims_are_falling_factorials():
    F = FiCategory()
    P0 = representable(F, 0, 5, "Q")
    cx = shift_complex(P0, 5, "plain")
    for p in range(6):
        for n in range(6):
            assert cx.dim(p, n) == falling(n, p)
    # p beyond the rank gives the zero chain space
    assert cx.dim(4, 2) == 0


@pytest.mark.parametrize("fieldspec", ["Q", "F3"])
def test_fi_plain_differentials_are_the_injective_words_boundary(fieldspec):
    # (Sigma_p P_d)_n has a basis of the injective words of length p + d in
    # n letters; d_p sends u to sum_i (-1)^(i+1) [u with its i-th letter
    # deleted], over the first p letters only
    field = coef_field(fieldspec)
    F = FiCategory()
    for d in (0, 1):
        cx = shift_complex(representable(F, d, 4, field), 4, "plain")
        for n in range(5):
            for p in range(1, 5):
                hi = [u.images for u in cx.spaces[(p, n)]]
                lo = {u.images: r for r, u in enumerate(cx.spaces[(p - 1, n)])}
                assert sorted(hi) == sorted(permutations(range(n), p + d))
                want = {}
                for j, u in enumerate(hi):
                    for i in range(p):
                        spot = (lo[u[:i] + u[i + 1:]], j)
                        want[spot] = want.get(spot, 0) + (-1) ** i
                got = {(r, j): c for j, col in enumerate(cx.diff(p, n).columns) for r, c in col}
                assert got == {k: field.of(c) for k, c in want.items() if field.of(c) != field.zero}


def test_triple_shift_dims_are_binomials_and_simplex_is_exact():
    F = FiCategory()
    P0 = representable(F, 0, 5, "Q")
    ct = shift_complex(P0, 4, "triple")
    for p in range(5):
        for n in range(6):
            assert ct.dim(p, n) == comb(n, p)
    assert complex_homology(ct, 3, 2) == {"H0": 0, "H1": 0, "H2": 0}
    for n in range(1, 6):
        dims = complex_homology(ct, n, min(3, n))
        assert all(v == 0 for v in dims.values())
    report = exactness_report(ct, 2)
    assert report["threshold"] == 1
    assert report["anomalies"] == []
    assert report["per_rank"][0]["dims"]["H0"] == 1


def test_injective_words_homology_is_derangements_in_top_degree():
    F = FiCategory()
    P0 = representable(F, 0, 5, "Q")
    cx = shift_complex(P0, 5, "plain")
    for n in range(1, 5):
        dims = complex_homology(cx, n, n)
        for i in range(n + 1):
            want = derangements(n) if i == n else 0
            assert dims["H%d" % i] == want


@pytest.mark.parametrize("fieldspec", ["Q", "F3"])
def test_injective_words_homology_is_derangements_through_rank_six(fieldspec):
    cx = shift_complex(representable(FiCategory(), 0, 7, fieldspec), 7)
    for n in range(1, 7):
        dims = complex_homology(cx, n, n)
        assert dims == {"H%d" % i: derangements(n) if i == n else 0 for i in range(n + 1)}


def test_rank_holds_only_pivots_in_memory():
    # d_3 of the VIC(Z/2) complex at rank 4 is 3360 x 20160; a table of its
    # rows, or of bit rows as wide as its columns, peaks far above this bound
    cx = shift_complex(representable(make_vic_category(make_ring("Z/2")), 0, 4, CoefField(2)), 3)
    d3 = cx.diff(3, 4)
    tracemalloc.start()
    try:
        assert d3.rank(CoefField(2)) == 3235
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_shift_complex_retains_packed_columns():
    # with its hom sets and position tables cached, rebuilding the VIC(Z/2)
    # N = 4, q = 3 complex keeps only the complex: 68,207 nonzeros at one array
    # slot and one shared small int each, never a pair tuple per nonzero
    module = representable(make_vic_category(make_ring("Z/2")), 0, 4, CoefField(2))
    shift_complex(module, 3)
    tracemalloc.start()
    try:
        cx = shift_complex(module, 3)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 3_000_000
    assert peak < 3_000_000
    assert all(type(d.starts) is type(d.row_of) is array for d in cx.diffs.values())


def test_homology_base_cases_and_report_envelope():
    F = FiCategory()
    P0 = representable(F, 0, 3, "Q")
    cx = shift_complex(P0, 1, "plain")
    assert complex_homology(cx, 0, 0) == {"H0": 1}

    ct = shift_complex(P0, 3, "triple")
    rep = homology_report(ct, 3, 2)
    assert rep == {
        "cat": "FI",
        "module": "P0",
        "variant": "triple",
        "rank": 3,
        "dims": {"H0": 0, "H1": 0, "H2": 0},
        "truncation": 3,
    }

    R2 = make_ring("Z/2")
    P0v = representable(make_vic_category(R2), 0, 3, "F2")
    cv = shift_complex(P0v, 1, "plain")
    for n in range(1, 4):
        assert complex_homology(cv, n, 0) == {"H0": 0}


def test_quotient_variant_dims_divide_by_the_group_order():
    R2 = make_ring("Z/2")
    S2 = make_si_category(R2)
    P0 = representable(S2, 0, 2, "F2")
    aut1 = len(S2.aut(1))
    base = shift_complex(P0, 2, "plain")
    for variant, order in (("prime", aut1 ** 2), ("double", 2), ("triple", 2 * aut1 ** 2)):
        c = shift_complex(P0, 2, variant)
        assert c.dim(2, 2) == base.dim(2, 2) // order
    # quotients keep the same homology here
    for variant in ("plain", "prime", "double", "triple"):
        c = shift_complex(P0, 2, variant)
        assert complex_homology(c, 2, 1)["H0"] == 0


def whole_as_submodule(P, d):
    """P_d rebuilt as the submodule one basis morphism at rank d (an
    automorphism) generates: the same module, reached by the complement route."""
    mod = submodule_closure(P, [(d, (1,) + (0,) * (P.dims[d] - 1))]).as_module()
    assert mod.dims == P.dims
    return mod


def test_routes_cross_check_on_dims_and_homology():
    F = FiCategory()
    P1 = representable(F, 1, 4, "Q")
    M1 = whole_as_submodule(P1, 1)
    for variant in ("plain", "prime", "double", "triple"):
        a = shift_complex(P1, 3, variant)
        b = shift_complex(M1, 3, variant)
        assert (a.route, b.route) == ("representable", "complement")
        for n in range(5):
            for p in range(4):
                assert a.dim(p, n) == b.dim(p, n)
            assert complex_homology(a, n, 2) == complex_homology(b, n, 2)

    R2 = make_ring("Z/2")
    P1v = representable(make_vic_category(R2), 1, 3, "F2")
    M1v = whole_as_submodule(P1v, 1)
    for variant in ("plain", "triple"):
        a = shift_complex(P1v, 2, variant)
        b = shift_complex(M1v, 2, variant)
        for n in range(4):
            for p in range(3):
                assert a.dim(p, n) == b.dim(p, n)
            assert complex_homology(a, n, 1) == complex_homology(b, n, 1)

    S2 = make_si_category(R2)
    P0s = representable(S2, 0, 2, "F2")
    a = shift_complex(P0s, 2, "plain")
    b = shift_complex(whole_as_submodule(P0s, 0), 2, "plain")
    for n in range(3):
        for p in range(3):
            assert a.dim(p, n) == b.dim(p, n)
        assert complex_homology(a, n, 1) == complex_homology(b, n, 1)


def test_shift_over_a_product_ring_and_nontrivial_units():
    # Z/6 exercises the CRT paths inside the category hooks; Z/4 with full
    # units makes the prime variant a genuine quotient (|Aut(X)| = 2).
    R6 = make_ring("Z/6")
    V6 = make_vic_category(R6)
    P0 = representable(V6, 0, 2, "Q")
    c = shift_complex(P0, 2, "plain")
    assert c.dim(1, 2) == len(V6.hom(1, 2))
    assert complex_homology(c, 2, 1)["H0"] == 0

    R4 = make_ring("Z/4")
    V4 = make_vic_category(R4)
    P0v = representable(V4, 0, 2, "Q")
    plain = shift_complex(P0v, 2, "plain")
    prime = shift_complex(P0v, 2, "prime")
    assert len(V4.aut(1)) == 2
    assert prime.dim(1, 2) * 2 == plain.dim(1, 2)
    assert prime.dim(2, 2) * 4 == plain.dim(2, 2)
    assert complex_homology(prime, 2, 1)["H0"] == 0


def test_shift_preconditions():
    F = FiCategory()
    P0 = representable(F, 0, 3, "Q")
    with pytest.raises(PreconditionError):
        shift_complex(P0, 2, "bogus")
    with pytest.raises(PreconditionError):
        shift_complex(P0, 5, "plain")  # q beyond truncation
    R4 = make_ring("Z/4")
    asym = make_vic_category(R4, units=(1,))
    assert not asym.is_symmetric
    P0a = representable(asym, 0, 2, "Q")
    with pytest.raises(PreconditionError):
        shift_complex(P0a, 2, "double")
    shift_complex(P0a, 2, "prime")  # prime needs no symmetry
    R2 = make_ring("Z/2")
    O2 = make_ovic_category(R2)
    P1o = representable(O2, 1, 2, "F2")
    with pytest.raises(PreconditionError):
        shift_complex(P1o, 1, "plain")  # no complements


def test_complex_homology_preconditions():
    F = FiCategory()
    P0 = representable(F, 0, 3, "Q")
    cx = shift_complex(P0, 2, "plain")
    with pytest.raises(PreconditionError):
        complex_homology(cx, 4, 1)
    with pytest.raises(PreconditionError):
        complex_homology(cx, 2, 2)  # needs the differential past q
    for v_rank, degree in ((-1, 1), ("1", 1), (1.0, 1), (1, -1), (1, "1"), (1, 1.0)):
        with pytest.raises(PreconditionError):
            complex_homology(cx, v_rank, degree)
    for degree in (-1, "1", 1.0):
        with pytest.raises(PreconditionError):
            exactness_report(cx, degree)


def _orbit_oracle(cplx):
    """Check each (signs, rep_of) table of a complex against brute force:
    the morphism at position t of hom(p + d, n) is its representative
    composed with a group element of sign signs[t], each orbit has one
    member per group element, and representatives are numbered in order of
    their first position, as the chain spaces list them."""
    module = cplx.module
    cat = module.cat
    d = 0 if cplx.route == "complement" else module.gen_rank
    for (p, n), (signs, rep_of) in cplx.proj.items():
        group = [(cat.monoidal_sum(g, cat.identity(d)), sign) for g, sign in _shift_group(cat, cplx.variant, p)]
        hom = cat.hom(p + d, n)
        assert len(signs) == len(rep_of) == len(hom)
        firsts = {}
        for t, r in enumerate(rep_of):
            firsts.setdefault(r, t)
        assert list(firsts) == list(range(len(firsts)))
        reps = [hom[t] for t in firsts.values()]
        if cplx.route == "representable":
            assert list(cplx.spaces[(p, n)]) == reps
        else:
            for (off, rank, _), h in zip(cplx.blocks[(p, n)], reps):
                assert [label[0] for label in cplx.spaces[(p, n)][off:off + module.dims[rank]]] == [h] * module.dims[rank]
        orbits = [{} for _ in reps]
        for members, u in zip(orbits, reps):
            for g, sign in group:
                members.setdefault(cat.key(cat.compose(u, g)), []).append(sign)
        for t, h in enumerate(hom):
            assert signs[t] in orbits[rep_of[t]][cat.key(h)]
        assert Counter(rep_of) == {r: len(group) for r in range(len(reps))}
        position = cat.position(p + d, n)
        assert position is cat.position(p + d, n)
        assert all(position[cat.key(h)] == i for i, h in enumerate(hom))


def test_orbit_tables_and_positions_match_brute_force():
    R2 = make_ring("Z/2")
    for cat, nmax in ((FiCategory(), 4), (make_vic_category(R2), 3), (make_si_category(R2), 2)):
        assert cat.is_symmetric  # so every variant is allowed
        for d in (0, 1):
            P = representable(cat, d, nmax, "F2")
            for module in (P, whole_as_submodule(P, d)):
                for variant in VARIANTS:
                    _orbit_oracle(shift_complex(module, nmax, variant))


def test_orbit_tables_reject_a_group_that_does_not_act_freely():
    F = FiCategory()
    group = _shift_group(F, "double", 2)
    assert len(group) == 2
    _orbit_tables(F, 2, 3, group)
    with pytest.raises(InvariantViolation, match="does not act freely"):
        _orbit_tables(F, 2, 3, group + group[1:])


# ---------------------------------------------------------------------------
# Chain homotopy and generation degree
# ---------------------------------------------------------------------------

def test_chain_homotopy_identity_fi():
    F = FiCategory()
    P0 = representable(F, 0, 4, "Q")
    for v in (1, 2, 3):
        rep = chain_homotopy_check(P0, v)
        assert rep["homotopy_ok"] and rep["induced_zero_ok"]
        assert rep["homotopy"][0] is True  # degree 0 is the d_1 G = I base case
    P1 = representable(F, 1, 3, "Q")
    rep = chain_homotopy_check(P1, 2)
    assert rep["homotopy_ok"] and rep["induced_zero_ok"]


def test_chain_homotopy_identity_vic_and_si():
    R2 = make_ring("Z/2")
    P1v = representable(make_vic_category(R2), 1, 3, "F2")
    rep = chain_homotopy_check(P1v, 2)
    assert rep["homotopy_ok"] and rep["induced_zero_ok"]
    assert rep["route"] == "representable"

    P0s = representable(make_si_category(R2), 0, 2, "F2")
    rep = chain_homotopy_check(P0s, 1)
    assert rep["homotopy_ok"] and rep["induced_zero_ok"]


def test_chain_homotopy_on_a_submodule_via_the_complement_route():
    R2 = make_ring("Z/2")
    V2 = make_vic_category(R2)
    P1v = representable(V2, 1, 3, "F2")
    full = submodule_closure(P1v, [(1, (1,))])
    mod = full.as_module()
    rep = chain_homotopy_check(mod, 2)
    assert rep["route"] == "complement"
    assert rep["homotopy_ok"] and rep["induced_zero_ok"]


def test_chain_homotopy_needs_symmetry_and_room():
    R2 = make_ring("Z/2")
    O2 = make_ovic_category(R2)
    P1o = representable(O2, 1, 2, "F2")
    with pytest.raises(PreconditionError):
        chain_homotopy_check(P1o, 1)
    R4 = make_ring("Z/4")
    asym = make_vic_category(R4, units=(1,))
    P0a = representable(asym, 0, 2, "Q")
    with pytest.raises(PreconditionError):
        chain_homotopy_check(P0a, 1)
    F = FiCategory()
    P0 = representable(F, 0, 2, "Q")
    with pytest.raises(PreconditionError):
        chain_homotopy_check(P0, 2)  # rank + 1 beyond truncation
    for v_rank in (-1, "1", 1.0):
        with pytest.raises(PreconditionError):
            chain_homotopy_check(P0, v_rank)


def test_generation_degree_representables_and_zero():
    F = FiCategory()
    P0 = representable(F, 0, 4, "Q")
    g0 = generation_degree(P0)
    assert g0["per_rank"] == {0: False, 1: True, 2: True, 3: True, 4: True}
    assert g0["stable_from"] == 1
    P1 = representable(F, 1, 4, "Q")
    g1 = generation_degree(P1)
    assert g1["per_rank"][1] is False
    assert all(g1["per_rank"][n] for n in range(2, 5))
    assert g1["stable_from"] == 2

    R2 = make_ring("Z/2")
    P1v = representable(make_vic_category(R2), 1, 3, "F2")
    gv = generation_degree(P1v)
    assert gv["per_rank"][1] is False and gv["per_rank"][2] and gv["per_rank"][3]
    assert gv["stable_from"] == 2

    Z = zero_module(F, 3, "Q")
    gz = generation_degree(Z)
    assert all(gz["per_rank"].values())
    assert gz["stable_from"] == 0


def test_generation_degree_of_a_rank_two_submodule():
    # generated at rank 2, so d_1 becomes onto exactly from rank 3 on
    R2 = make_ring("Z/2")
    V2 = make_vic_category(R2)
    P1v = representable(V2, 1, 3, "F2")
    vec = tuple(1 if i in (0, 1) else 0 for i in range(6))
    sub = submodule_closure(P1v, [(2, vec)])
    mod = sub.as_module()
    g = generation_degree(mod)
    assert g["per_rank"][2] is False
    assert g["per_rank"][3] is True
    assert g["stable_from"] == 3


# ---------------------------------------------------------------------------
# Submodule closure
# ---------------------------------------------------------------------------

def test_closure_of_the_identity_generator_is_everything():
    R2 = make_ring("Z/2")
    V2 = make_vic_category(R2)
    P1v = representable(V2, 1, 3, "F2")
    full = submodule_closure(P1v, [(1, (1,))])
    assert full.dims() == {0: 0, 1: 1, 2: 6, 3: 28}

    O2 = make_ovic_category(R2)
    P1o = representable(O2, 1, 3, "F2")
    fullo = submodule_closure(P1o, [(1, (1,))])
    assert fullo.dims() == {0: 0, 1: 1, 2: 6, 3: 28}


def test_closure_of_zero_and_of_a_two_term_generator():
    R2 = make_ring("Z/2")
    V2 = make_vic_category(R2)
    P1v = representable(V2, 1, 3, "F2")
    zero = submodule_closure(P1v, [(2, (0,) * 6)])
    assert zero.dims() == {0: 0, 1: 0, 2: 0, 3: 0}
    vec = tuple(1 if i in (0, 1) else 0 for i in range(6))
    two = submodule_closure(P1v, [(2, vec)])
    dims = two.dims()
    assert 0 < dims[2] < 6 and 0 < dims[3] < 28
    assert two.contains(2, vec)
    # closed under every enumerated action by construction; spot-check one
    f = V2.hom(2, 3)[5]
    image = dense_mat_vec(P1v.field, dense_rows(P1v.field, P1v.act(f)), vec)
    assert two.contains(3, image)


def test_closure_generator_validation_and_rationals_path():
    F = FiCategory()
    P1 = representable(F, 1, 3, "Q")
    with pytest.raises(PreconditionError):
        submodule_closure(P1, [(7, (1,))])
    with pytest.raises(PreconditionError):
        submodule_closure(P1, [(1, (1, 0))])
    # a closure rank outside 0..N (max_rank=-1 once gave an empty closure)
    for bad in (-1, 1.5, "1", 4):
        with pytest.raises(PreconditionError):
            submodule_closure(P1, [], max_rank=bad)
    assert submodule_closure(P1, [(1, (1,))], max_rank=1).dims() == {0: 0, 1: 1}
    full = submodule_closure(P1, [(1, (1,))])
    assert full.dims() == {0: 0, 1: 1, 2: 2, 3: 3}
    # over Q the pair sums e_i + e_j at rank 3 already span everything
    # (the parity obstruction exists only in characteristic 2)
    proper = submodule_closure(P1, [(2, (1, 1))])
    assert proper.dims() == {0: 0, 1: 0, 2: 1, 3: 3}
    modp = proper.as_module()
    assert check_functoriality(modp, up_to=3) > 0
    # over F_3 a rational generator is taken as a * b^-1, never truncated:
    # 1/2 is 2, so (1/2, 0) closes to what (2, 0) does
    P1f3 = representable(F, 1, 2, "F3")
    half = submodule_closure(P1f3, [(2, (Fraction(1, 2), 0))])
    assert half.dims() == submodule_closure(P1f3, [(2, (2, 0))]).dims() == {0: 0, 1: 0, 2: 2}
    with pytest.raises(PreconditionError):
        submodule_closure(P1f3, [(2, (Fraction(1, 3), 0))])


def rref(p, vectors, width):
    """The reduced row echelon basis of the span of vectors over F_p, or over
    Q for p = 0, by Gauss-Jordan on dense lists: (rows, pivots)."""
    norm = (lambda x: x % p) if p else Fraction
    inv = (lambda x: pow(x, -1, p)) if p else (lambda x: 1 / x)
    rows = {}  # pivot -> row, 1 at its pivot and 0 at every other pivot
    for v in vectors:
        if len(rows) == width:
            break
        v = [norm(x) for x in v]
        for j, row in rows.items():
            if v[j]:
                v = [norm(x - v[j] * y) for x, y in zip(v, row)]
        j = next((j for j, x in enumerate(v) if x), None)
        if j is None:
            continue
        v = [norm(inv(v[j]) * x) for x in v]
        for k, row in rows.items():
            if row[j]:
                rows[k] = [norm(x - row[j] * y) for x, y in zip(row, v)]
        rows[j] = v
    return tuple(tuple(rows[j]) for j in sorted(rows)), tuple(sorted(rows))


def orbit_span(P, generators, n):
    """The canonical basis of the span of f . v over every generator (m, v)
    and every f in hom(m, n), the identity included; P is representable, so
    f sends the basis vector of u in hom(d, m) to that of f . u."""
    cat, p = P.cat, P.field.p
    index = {cat.key(u): i for i, u in enumerate(P.labels[n])}
    images = []
    for m, v in generators:
        if m > n:
            continue
        hs = cat.hom(m, n)
        image = [[0] * P.dims[n] for _ in hs]
        for u, c in zip(P.labels[m], v):
            if c:
                for w, k in zip(image, cat.precompose_keys(hs, u)):
                    w[index[k]] += c
        images.extend(image)
    return rref(p, images, P.dims[n])


CLOSURE_CASES = [
    ("FI", FiCategory, 4, "Q"),
    ("FI", FiCategory, 4, "F2"),
    ("VIC(Z/2)", lambda: make_vic_category(make_ring("Z/2")), 3, "F2"),
    ("VIC(Z/2)", lambda: make_vic_category(make_ring("Z/2")), 3, "F3"),
    ("SI(Z/2)", lambda: make_si_category(make_ring("Z/2")), 2, "F2"),
    ("OVIC(Z/2)", lambda: make_ovic_category(make_ring("Z/2")), 3, "F2"),
    ("OSI(Z/2)", lambda: make_osi_category(make_ring("Z/2")), 2, "F2"),
]


@pytest.mark.parametrize("case", CLOSURE_CASES, ids=lambda c: "%s-N%d-%s" % (c[0], c[2], c[3]))
def test_closure_is_the_span_of_every_image_of_the_generators(case):
    _, make_cat, top, fieldspec = case
    P = representable(make_cat(), 1, top, fieldspec)
    rng = random.Random(top)
    values = range(1, P.field.p or 3)
    gen_sets = [[], [(top, (0,) * P.dims[top])]]
    for size in (1, 2, 3):
        # generators with two nonzero coordinates mostly close to proper submodules
        gens = []
        for _ in range(size):
            m = rng.randrange(1, top + 1)
            v = [0] * P.dims[m]
            for i in rng.sample(range(P.dims[m]), min(2, P.dims[m])):
                v[i] = rng.choice(values)
            gens.append((m, tuple(v)))
        gen_sets.append(gens)
    for gens in gen_sets:
        sub = submodule_closure(P, gens)
        for n in range(top + 1):
            assert sub.spans[n] == orbit_span(P, gens, n), (gens, n)


def test_unclosed_spans_are_rejected_when_used_as_a_module():
    R2 = make_ring("Z/2")
    V2 = make_vic_category(R2)
    P1v = representable(V2, 1, 3, "F2")
    field = P1v.field
    rows1, piv1 = SpanBuilder(field, 1, [(1,)]).basis()
    empty2 = SpanBuilder(field, 6).basis()
    empty3 = SpanBuilder(field, 28).basis()
    empty0 = SpanBuilder(field, 0).basis()
    broken = Submodule(P1v, {0: empty0, 1: (rows1, piv1), 2: empty2, 3: empty3})
    mod = broken.as_module()
    with pytest.raises(InvariantViolation):
        mod.act(V2.hom(1, 2)[0])


# ---------------------------------------------------------------------------
# Initial terms
# ---------------------------------------------------------------------------

def test_init_of_basic_cases_and_the_two_term_example():
    R2 = make_ring("Z/2")
    O2 = make_ovic_category(R2)
    P1o = representable(O2, 1, 3, "F2")
    # init(0) = 0
    assert init_of(P1o, 2, (0,) * 6) == (0,) * 6
    assert init_positions(P1o, 2, (0,) * 6) is None
    # init of a single basis element is itself
    for i in range(6):
        e = tuple(1 if j == i else 0 for j in range(6))
        assert init_of(P1o, 2, e) == e
    # the documented two-term example at rank 2: the summand whose pivot set
    # is {2} is the larger one
    pos_a = pos_b = None
    for i, u in enumerate(P1o.labels[2]):
        if u.f.to_rows() == [[1], [0]] and u.fp.to_rows() == [[1, 0]]:
            pos_a = i
        if u.f.to_rows() == [[0], [1]] and u.fp.to_rows() == [[0, 1]]:
            pos_b = i
    assert pos_a is not None and pos_b is not None
    vec = tuple(1 if i in (pos_a, pos_b) else 0 for i in range(6))
    assert init_of(P1o, 2, vec) == tuple(1 if i == pos_b else 0 for i in range(6))


def test_init_requires_the_ordered_categories():
    F = FiCategory()
    P1 = representable(F, 1, 2, "Q")
    with pytest.raises(PreconditionError):
        init_of(P1, 1, (1,))
    R2 = make_ring("Z/2")
    V2 = make_vic_category(R2)
    P1v = representable(V2, 1, 2, "F2")
    with pytest.raises(PreconditionError):
        init_of(P1v, 2, (0,) * 6)
    # and a rank inside the truncation
    P1o = representable(make_ovic_category(R2), 1, 2, "F2")
    for rank in (-1, 3, "2"):
        with pytest.raises(PreconditionError):
            init_of(P1o, rank, (0,) * 6)
        with pytest.raises(PreconditionError):
            init_positions(P1o, rank, (0,) * 6)


def test_init_module_positions_match_a_sampling_oracle():
    rng = random.Random(2361)
    R2 = make_ring("Z/2")
    O2 = make_ovic_category(R2)
    P1o = representable(O2, 1, 3, "F2")
    field = P1o.field
    for _ in range(12):
        gens = []
        for _ in range(rng.randrange(1, 3)):
            r = rng.choice([1, 2, 3])
            gens.append((r, tuple(rng.randrange(2) for _ in range(P1o.dims[r]))))
        sub = submodule_closure(P1o, gens)
        positions = init_module(sub)
        for n in range(4):
            rows, _ = sub.spans[n]
            # the attainable leading positions form a set as large as the span
            assert len(positions[n]) == len(rows)
            if not rows:
                continue
            seen = set()
            combos = (
                product([0, 1], repeat=len(rows))
                if len(rows) <= 8
                else (tuple(rng.randrange(2) for _ in rows) for _ in range(100))
            )
            for combo in combos:
                v = [field.zero] * P1o.dims[n]
                for c, row in zip(combo, rows):
                    if c:
                        v = [field.of(x + y) for x, y in zip(v, row)]
                pos = init_positions(P1o, n, tuple(v))
                if pos is not None:
                    seen.add(pos)
            assert seen <= set(positions[n])
            if len(rows) <= 8:
                assert seen == set(positions[n])


def test_init_gap_check_detects_strict_inclusion_and_confirms_equality():
    R2 = make_ring("Z/2")
    O2 = make_ovic_category(R2)
    P1o = representable(O2, 1, 3, "F2")
    M = submodule_closure(P1o, [(1, (1,))])
    pos_a = pos_b = None
    for i, u in enumerate(P1o.labels[2]):
        if u.f.to_rows() == [[1], [0]] and u.fp.to_rows() == [[1, 0]]:
            pos_a = i
        if u.f.to_rows() == [[0], [1]] and u.fp.to_rows() == [[0, 1]]:
            pos_b = i
    vec = tuple(1 if i in (pos_a, pos_b) else 0 for i in range(6))
    N = submodule_closure(P1o, [(2, vec)])
    rep = init_gap_check(N, M)
    assert not rep["modules_equal"]
    assert not rep["inits_equal"]
    smaller = [n for n, row in rep["per_rank"].items() if not row["init_equal"]]
    assert smaller, "a strict submodule must show a strictly smaller init span somewhere"

    same = init_gap_check(M, M)
    assert same["inits_equal"] and same["modules_equal"]

    with pytest.raises(PreconditionError):
        init_gap_check(M, N)  # containment fails the other way


def test_init_gap_property_sweep_random_nested_pairs():
    rng = random.Random(97)
    R2 = make_ring("Z/2")
    O2 = make_ovic_category(R2)
    P1o = representable(O2, 1, 3, "F2")
    field = P1o.field
    for _ in range(20):
        gens = []
        for _ in range(rng.randrange(1, 3)):
            r = rng.choice([1, 2, 3])
            gens.append((r, tuple(rng.randrange(2) for _ in range(P1o.dims[r]))))
        M = submodule_closure(P1o, gens)
        inner = []
        for n, (rows, _) in M.spans.items():
            for row in rows:
                if rng.random() < 0.4:
                    inner.append((n, row))
        if rng.random() < 0.5 and inner:
            inner = inner[: rng.randrange(1, len(inner) + 1)]
        N = submodule_closure(P1o, inner)
        rep = init_gap_check(N, M)  # raises if the implication ever fails
        if rep["inits_equal"]:
            assert rep["modules_equal"]
        for n, row in rep["per_rank"].items():
            assert row["dim_sub"] <= row["dim_super"]
            assert set(row["init_positions_sub"]) <= set(row["init_positions_super"])


def test_init_engine_over_osi():

    R2 = make_ring("Z/2")
    O = make_osi_category(R2)
    P1 = representable(O, 1, 2, "F2")
    assert P1.dims[1] >= 1
    e0 = tuple(1 if i == 0 else 0 for i in range(P1.dims[2]))
    assert init_of(P1, 2, e0) == e0
    sub = submodule_closure(P1, [(1, tuple(1 if i == 0 else 0 for i in range(P1.dims[1])))])
    positions = init_module(sub)
    assert all(len(positions[n]) == len(sub.spans[n][0]) for n in range(3))
    gap = init_gap_check(sub, sub)
    assert gap["inits_equal"] and gap["modules_equal"]
