"""VIC / OVIC tests.

Oracles: brute-force enumeration of matrix pairs (f, fp) with fp * f = I,
column-adapted filtering via the matrix-level predicate, determinant-unit
filtering for GL (with a Leibniz determinant), and composite-set counting for
the category V.
"""

import random
import tracemalloc
from collections.abc import Sequence
from itertools import permutations, product as iproduct

import pytest

from ficat.catcore import check_axioms
from ficat.errors import BudgetExceeded, InvariantViolation, PreconditionError
from ficat.matrices import Mat, column_adapted, det, is_surjective, try_inverse
from ficat import vic as vic_module
from ficat.rings import make_ring
from ficat.vic import (
    OvicMorphism,
    UnitSubgroup,
    VicCategory,
    VicMorphism,
    gl_order,
    gl_pairs,
    make_ovic_category,
    make_vic_category,
    ovic_count,
    ovic_hom_enumerate,
    vic_factor,
)
from oracles import canonical_orbit

Z2 = make_ring("Z/2")
Z3 = make_ring("Z/3")
Z4 = make_ring("Z/4")
Z6 = make_ring("Z/6")


def all_mats(ring, rows, cols):
    for data in iproduct(range(ring.size), repeat=rows * cols):
        yield Mat(ring, rows, cols, data)


def leibniz_det(m):
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


def brute_vic_pairs(ring, m, n):
    """All (f, fp) with fp * f = I, found by exhaustive search."""
    eye = Mat.identity(ring, m)
    out = []
    for fp in all_mats(ring, m, n):
        for f in all_mats(ring, n, m):
            if fp.mul(f) == eye:
                out.append((f, fp))
    return out


def count_surjections(ring, m, k):
    """Brute count of surjective maps R^m -> R^k (k x m matrices)."""
    return sum(1 for s in all_mats(ring, k, m) if is_surjective(s)) if k <= m else 0


def vi_v_hom_counts(ring, m, n):
    """(vi_count, v_count) for maps R^m -> R^n.

    vi_count is the number of split injections (transposing maps them one to
    one onto the surjections R^n -> R^m).  v_count is the number of maps with
    free cokernel, from the factorization of such a map as a surjection onto
    R^k followed by a split injection: the pairs over-count each map by a
    free GL_k action, so the k-th term divides exactly.
    """
    v = 0
    for k in range(min(m, n) + 1):
        pairs = count_surjections(ring, m, k) * count_surjections(ring, n, k)
        assert pairs % gl_order(ring, k) == 0, k
        v += pairs // gl_order(ring, k)
    return count_surjections(ring, n, m), v


# ----- unit subgroups -----

def test_unit_subgroup_validation():
    full = UnitSubgroup(Z4)
    assert full.is_full and full.elements == {1, 3}
    assert UnitSubgroup(Z4, [1, 3]) == full
    only_one = UnitSubgroup(Z4, [1])
    assert not only_one.is_full and 3 not in only_one
    with pytest.raises(PreconditionError):
        UnitSubgroup(Z4, [1, 2])  # 2 is not a unit
    with pytest.raises(PreconditionError):
        UnitSubgroup(Z4, [3])  # missing 1
    with pytest.raises(PreconditionError):
        UnitSubgroup(make_ring("Z/8"), [1, 3, 5])  # 3*5 = 7 escapes


def test_vic_morphism_validation():
    f = Mat.from_rows(Z4, [[1], [2]])
    good = Mat.from_rows(Z4, [[1, 0]])
    bad = Mat.from_rows(Z4, [[0, 1]])
    VicMorphism(f, good)
    with pytest.raises(PreconditionError):
        VicMorphism(f, bad)
    with pytest.raises(PreconditionError):
        OvicMorphism(Mat.from_rows(Z4, [[3], [0]]), Mat.from_rows(Z4, [[3, 0]]))


# ----- GL -----

def test_gl_order_against_brute():
    for ring, n, expect in [(Z4, 1, 2), (Z4, 2, 96), (Z2, 2, 6), (Z3, 2, 48), (Z6, 2, 288)]:
        brute = sum(1 for m in all_mats(ring, n, n) if try_inverse(m) is not None)
        assert brute == expect
        assert gl_order(ring, n) == expect
    assert gl_order(Z4, 3) == 86016
    assert gl_order(Z6, 0) == 1


def test_gl_pairs_inverses():
    pairs = gl_pairs(Z6, 2)
    assert len(pairs) == 288
    eye = Mat.identity(Z6, 2)
    for a, ainv, d in pairs:
        assert a.mul(ainv) == eye and ainv.mul(a) == eye
        assert det(a) == d


@pytest.mark.parametrize(
    "spec,n",
    [("Z/2", 0), ("Z/2", 1), ("Z/2", 2), ("Z/2", 3), ("Z/3", 1), ("Z/3", 2), ("Z/4", 0),
     ("Z/3", 3), ("Z/4", 1), ("Z/4", 2), ("Z/5", 2), ("Z/8", 2), ("Z/9", 2), ("Z/6", 2),
     ("Z/2 x Z/2", 2)],
)
def test_gl_pairs_match_leibniz_filter(spec, n):
    ring = make_ring(spec)
    brute = sorted((m for m in all_mats(ring, n, n) if ring.is_unit(leibniz_det(m))),
                   key=lambda m: m.data)
    table = gl_pairs(ring, n)
    assert [a.data for a, _, _ in table] == [m.data for m in brute]
    eye = Mat.identity(ring, n)
    for a, ainv, d in table:
        assert a.mul(ainv) == eye and ainv.mul(a) == eye
        assert d == leibniz_det(a)


def test_gl3_z4_sorted_pairs():
    table = gl_pairs(Z4, 3)
    assert len(table) == 86016
    assert all(x[0].data < y[0].data for x, y in zip(table, table[1:]))
    index = {a.data: (a, ainv, d) for a, ainv, d in table}
    for a, ainv, d in table:
        b, binv, e = index[ainv.data]
        assert (b.data, binv.data, e) == (ainv.data, a.data, Z4.inverse(d))
    eye = Mat.identity(Z4, 3)
    for a, ainv, d in table:
        assert a.mul(ainv) == eye and ainv.mul(a) == eye
        assert d == det(a)


@pytest.mark.parametrize("spec,n", [("Z/4", 2), ("Z/6", 2), ("Z/2", 0)])
def test_gl_table_is_a_read_only_sequence(spec, n):
    ring = make_ring(spec)
    table = gl_pairs(ring, n)
    assert isinstance(table, Sequence) and len(table) == gl_order(ring, n)
    triples = list(table)
    assert triples == [table[i] for i in range(len(table))]
    assert table[-1] == triples[-1] and table[-len(table)] == triples[0]
    assert table[1:5] == tuple(triples[1:5]) and table[::-3] == tuple(triples[::-3])
    with pytest.raises(IndexError):
        table[len(table)]
    with pytest.raises(IndexError):
        table[-len(table) - 1]
    with pytest.raises(TypeError):
        table[0] = triples[0]
    sample = random.Random(7).sample(table, min(5, len(table)))
    assert all(t in triples for t in sample)
    # the arrays behind it: sorted codes, the index of each inverse, the dets
    assert list(table.codes) == sorted(set(table.codes))
    for i, ((a, ainv, d), code, j, e) in enumerate(zip(triples, table.codes, table.inv, table.dets)):
        assert table.code(a.data) == code and table.position(code) == i
        assert triples[j][0] == ainv and d == e


def test_gl3_z4_table_is_compact(monkeypatch):
    # 86,016 elements in three arrays of 64-bit entries: about 2 MB, against
    # 25.8 MB retained (31.2 MB peak) for a Mat pair and a tuple per element
    monkeypatch.delitem(vic_module._GL_LOCAL, ("Z/4", 3), raising=False)
    tracemalloc.start()
    try:
        table = gl_pairs(Z4, 3)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 86016
    assert retained < 4_000_000 and peak < 8_000_000


def test_gl_budget():
    with pytest.raises(BudgetExceeded):
        gl_pairs(Z6, 3, budget=500_000)


# ----- OVIC enumeration -----

@pytest.mark.parametrize(
    "ring,m,n",
    [(Z2, 1, 2), (Z2, 2, 3), (Z4, 1, 2), (Z4, 2, 3), (Z6, 1, 2), (Z3, 1, 3)],
)
def test_ovic_enumeration_matches_brute(ring, m, n):
    eye = Mat.identity(ring, m)
    brute = set()
    for fp in all_mats(ring, m, n):
        if column_adapted(fp) is None:
            continue
        for f in all_mats(ring, n, m):
            if fp.mul(f) == eye:
                brute.add((f.data, fp.data))
    got = ovic_hom_enumerate(ring, m, n)
    assert {(mor.f.data, mor.fp.data) for mor in got} == brute
    assert len(got) == ovic_count(ring, m, n) == len(brute)


def test_ovic_counts_examples():
    assert ovic_count(Z4, 1, 2) == 24
    assert ovic_count(Z2, 1, 1) == 1
    assert ovic_count(Z2, 1, 2) == 6
    assert ovic_count(Z6, 2, 3) == 3276
    assert ovic_count(Z4, 2, 1) == 0


def test_ovic_aut_is_identity_only():
    for ring in (Z2, Z4, Z6):
        cat = make_ovic_category(ring)
        for n in range(3):
            auts = cat.aut(n)
            assert len(auts) == 1 and auts[0] == cat.identity(n)


def test_ovic_composition_stays_adapted():
    cat = make_ovic_category(Z2)
    for g in cat.hom(2, 3):
        for f in cat.hom(1, 2):
            comp = cat.compose(g, f)
            assert isinstance(comp, OvicMorphism)
            assert comp.fp.mul(comp.f) == Mat.identity(Z2, 1)


def test_ovic_composite_errors():
    """compose and precompose raise alike: PreconditionError for factors over
    two rings, InvariantViolation for a composite that is not adapted."""
    cat = make_ovic_category(Z4)
    f = cat.hom(1, 2)[0]
    other = make_ovic_category(make_ring("Z/2 x Z/2")).hom(2, 2)[0]
    flip = make_vic_category(Z4).flip(1, 1)
    for g, f, error in ((other, f, PreconditionError), (cat.identity(2), flip, InvariantViolation)):
        for call in (lambda: cat.compose(g, f), lambda: cat.precompose([g], f)):
            with pytest.raises(error):
                call()


# ----- VIC hom sets -----

def test_vic_hom_matches_brute_pairs():
    vic = make_vic_category(Z2)
    brute = {(f.data, fp.data) for f, fp in brute_vic_pairs(Z2, 1, 2)}
    got = {(mor.f.data, mor.fp.data) for mor in vic.hom(1, 2)}
    assert got == brute and len(got) == 6


def test_vic_hom_counts_factorization_identity():
    for ring in (Z2, Z4, Z6):
        vic = make_vic_category(ring)
        for m, n in [(0, 2), (1, 2), (1, 3), (2, 3)]:
            assert vic.count_hom(m, n) == ovic_count(ring, m, n) * gl_order(ring, m)
    assert make_vic_category(Z4).count_hom(2, 3) == 43008
    assert make_vic_category(Z4).count_hom(1, 2) == 48


@pytest.mark.parametrize(
    "ring,units,top",
    [(Z2, None, 4), (Z4, [1, 3], 2), (Z6, None, 2)],
    ids=["Z/2", "Z/4,U={1,3}", "Z/6"],
)
def test_vic_hom_matches_generic_compose_of_its_factors(ring, units, top):
    # every morphism is an OVIC morphism after an automorphism of the source:
    # hom(m, n) is exactly the set of those composites, built one at a time
    vic = make_vic_category(ring, units)
    ovic = make_ovic_category(ring)
    for n in range(top + 1):
        for m in range(n + 1):
            want = sorted(vic.key(vic.compose(o, a)) for a in vic.aut(m) for o in ovic.hom(m, n))
            assert [vic.key(h) for h in vic.hom(m, n)] == want


def test_hom_sets_build_each_distinct_matrix_once():
    # a VIC hom set holds one f per split injection and one fp per surjection
    for ring, m, n in ((Z2, 3, 4), (Z4, 1, 2)):
        hom = VicCategory(ring).hom(m, n)
        vi = vi_v_hom_counts(ring, m, n)[0]
        assert len({id(h.f) for h in hom}) == len({h.f.data for h in hom}) == vi
        assert len({id(h.fp) for h in hom}) == len({h.fp.data for h in hom}) == vi
    assert vi == 12 and len(hom) == 48
    # OVIC builds one matrix per distinct value over a local ring, and over a
    # product ring lifts each distinct tuple of local parts once
    for ring, m, n, count, fps, fs in ((Z2, 2, 4, 560, 35, 155), (Z6, 1, 3, 3276, 91, 175)):
        hom = ovic_hom_enumerate(ring, m, n)
        assert len(hom) == count
        assert len({id(h.fp) for h in hom}) == len({h.fp.data for h in hom}) == fps
        assert len({id(h.f) for h in hom}) == len({h.f.data for h in hom}) == fs


def test_vic_hom_retains_shared_matrices():
    # 20,160 morphisms share 2,520 f and 2,520 fp matrices: about 2.6 MB,
    # against 9.4 MB for a new pair of matrices per morphism
    gl_pairs(Z2, 3)
    ovic_hom_enumerate(Z2, 3, 4)
    vic = VicCategory(Z2)
    tracemalloc.start()
    try:
        hom = vic.hom(3, 4)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(hom) == 20160
    assert retained < 4_000_000


def test_vic_aut_determinant_filter():
    vic_full = make_vic_category(Z4)
    vic_one = make_vic_category(Z4, [1])
    assert len(vic_full.aut(2)) == 96
    assert len(vic_one.aut(2)) == 48
    assert all(det(a.f) == 1 for a in vic_one.aut(2))
    assert vic_one.count_hom(2, 2) == 48
    # hom sets below the top rank carry no determinant condition
    assert vic_one.count_hom(1, 2) == vic_full.count_hom(1, 2) == 48


def test_vic_symmetric_flag():
    assert make_vic_category(Z2).is_symmetric
    assert make_vic_category(Z4).is_symmetric  # -1 = 3 is a unit
    assert not make_vic_category(Z4, [1]).is_symmetric
    with pytest.raises(PreconditionError):
        make_vic_category(Z4, [1]).flip(1, 1)  # odd permutation needs -1 in U


# ----- factorization through OVIC -----

@pytest.mark.parametrize("spec,units", [("Z/4", [1]), ("Z/5", [1, 4]), ("Z/6", [1])])
def test_vic_aut_keeps_the_table_rows_with_det_in_u(spec, units):
    ring = make_ring(spec)
    vic = VicCategory(ring, units)
    for n in range(3):
        want = [(n, n, a.data, ainv.data) for a, ainv, d in gl_pairs(ring, n) if d in units]
        assert [vic.key(f) for f in vic.aut(n)] == want
    assert len(vic.aut(2)) * len(ring.units()) == gl_order(ring, 2) * len(units)


def test_vic_factor_rejects_non_morphisms():
    for bad in (None, Mat.identity(Z4, 2), "f"):
        with pytest.raises(PreconditionError):
            vic_factor(bad)


def test_vic_factor_example():
    mor = VicMorphism(Mat.from_rows(Z4, [[3], [0]]), Mat.from_rows(Z4, [[3, 0]]))
    ovic, aut = vic_factor(mor)
    assert ovic.f.data == (1, 0) and ovic.fp.data == (1, 0)
    assert aut.f.data == (3,) and aut.fp.data == (3,)


def test_vic_factor_fixes_adapted():
    cat = make_ovic_category(Z4)
    for mor in cat.hom(1, 2):
        ovic, aut = vic_factor(mor)
        assert (ovic.f, ovic.fp) == (mor.f, mor.fp)
        assert aut.f == Mat.identity(Z4, 1)


def test_vic_factor_unique_exhaustive():
    vic = make_vic_category(Z6)
    ovics = ovic_hom_enumerate(Z6, 1, 2)
    auts = [(a, ainv) for a, ainv, _ in gl_pairs(Z6, 1)]
    assert len(auts) == 2
    for mor in vic.hom(1, 2):
        ovic, aut = vic_factor(mor)
        recomposed = vic.compose(ovic, aut)
        assert (recomposed.f, recomposed.fp) == (mor.f, mor.fp)
        hits = 0
        for cand in ovics:
            for a, ainv in auts:
                trial = vic.compose(cand, VicMorphism(a, ainv, check=False))
                if (trial.f, trial.fp) == (mor.f, mor.fp):
                    hits += 1
        assert hits == 1


def test_vic_forgetting_fp_fibers_constant():
    # forgetting fp maps Hom_VIC onto the split injections with constant fibers
    vic = make_vic_category(Z4)
    fibers = {}
    for mor in vic.hom(1, 2):
        fibers.setdefault(mor.f.data, 0)
        fibers[mor.f.data] += 1
    vi, _ = vi_v_hom_counts(Z4, 1, 2)
    assert len(fibers) == vi
    assert len(set(fibers.values())) == 1


# ----- VI / V counts -----

def test_vi_v_counts_examples():
    assert vi_v_hom_counts(Z2, 1, 2)[0] == 3
    assert vi_v_hom_counts(Z2, 2, 1)[1] == 4
    assert vi_v_hom_counts(Z4, 1, 1)[0] == 2


def test_vi_count_matches_adapted_formula():
    # independent count: adapted matrices times |GL_m| via the transpose bijection
    for ring, m, n in [(Z2, 1, 2), (Z2, 2, 3), (Z4, 1, 2), (Z6, 1, 2), (Z4, 2, 2)]:
        adapted = sum(1 for fp in all_mats(ring, m, n) if column_adapted(fp) is not None)
        vi, _ = vi_v_hom_counts(ring, m, n)
        assert vi == adapted * gl_order(ring, m)


def test_v_count_matches_composite_sets():
    for ring, m, n in [(Z2, 2, 1), (Z2, 2, 2), (Z4, 1, 2), (Z6, 1, 1)]:
        composites = set()
        for k in range(min(m, n) + 1):
            surjs = [s for s in all_mats(ring, k, m) if is_surjective(s)]
            injs = [i for i in all_mats(ring, n, k) if is_surjective(i.transpose())]
            for s in surjs:
                for i in injs:
                    composites.add(i.mul(s).data)
        assert vi_v_hom_counts(ring, m, n)[1] == len(composites)
    # over a field every map is splittable
    assert vi_v_hom_counts(Z2, 2, 2)[1] == 16


# ----- complemented structure -----

def test_vic_complement_and_assemble():
    vic = make_vic_category(Z4)
    for mor in vic.hom(1, 2):
        r, j = vic.complement_of(mor)
        assert r == 1 and vic.validate(j)
        psi = vic.assemble(mor, j)
        assert psi is not None and vic.validate(psi)
        assert vic.compose(psi, vic.canonical(1, 2)) == mor
        assert vic.compose(psi, vic.canonical_last(1, 2)) == j


def test_vic_complement_determinant_lands_in_u():
    vic = make_vic_category(Z4, [1])
    for mor in vic.hom(1, 2):
        r, j = vic.complement_of(mor)
        psi = vic.assemble(mor, j)
        assert psi is not None and det(psi.f) == 1


def test_vic_factor_through():
    vic = make_vic_category(Z4)
    psi = vic.aut(2)[17]
    j2 = vic.compose(psi, vic.canonical(1, 2))
    c = vic.factor_through(j2, j2)
    assert c == vic.identity(1)
    with pytest.raises(PreconditionError):
        other = vic.compose(psi, vic.canonical_last(1, 2))
        vic.factor_through(j2, other)


def test_vic_axioms_small():
    report = check_axioms(make_vic_category(Z2), 2)
    assert report["ok"], report
    report = check_axioms(make_vic_category(Z6), 2)
    assert report["ok"], report
    report = check_axioms(make_vic_category(Z4, [1]), 2)
    assert report["ok"], report
    assert "symmetry" not in report["checks"]


def test_vic_group_structure_report():
    vic = make_vic_category(Z2)
    assert (vic.count_hom(1, 2), len(vic.aut(2)), vic.count_hom(1, 1)) == (6, 6, 1)
    orbit, stabilizer = canonical_orbit(vic, 1, 2)
    assert orbit == vic.position(1, 2).keys()
    assert stabilizer == 1 == vic.count_hom(1, 1)

