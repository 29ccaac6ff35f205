"""Symplectic category tests.

Oracles: brute-force filters over all matrices for symplectic map counts,
annihilator sweeps for perpendiculars, and exhaustive GL candidates for the
uniqueness of the row-adapted factorization.
"""

from itertools import product as iproduct

import pytest

from ficat.catcore import check_axioms
from ficat.errors import BudgetExceeded, PreconditionError
from ficat.matrices import Mat, det, row_adapted, try_inverse
from ficat.rings import make_ring
import ficat.si as si_module
from ficat.si import (
    OsiCategory,
    SiMorphism,
    SymplecticForm,
    make_osi_category,
    make_si_category,
    osi_factor,
    osi_prime_hom,
    perp,
    standard_form,
    symplectic_check,
)
from oracles import canonical_orbit, column_span_set, symplectic_forms

Z2 = make_ring("Z/2")
Z4 = make_ring("Z/4")
Z6 = make_ring("Z/6")


def all_mats(ring, rows, cols):
    for data in iproduct(range(ring.size), repeat=rows * cols):
        yield Mat(ring, rows, cols, data)


def brute_symplectic(ring, src_form, n):
    """Oracle: filter every matrix of the right shape on the Gram identity."""
    dst = standard_form(ring, n)
    out = []
    for m in all_mats(ring, 2 * n, src_form.dim):
        if symplectic_check(m, src_form, dst):
            out.append(m)
    return out


def brute_perp(ring, w, form):
    """Oracle: every vector pairing to zero with all columns of w."""
    dim = form.dim
    out = set()
    wt = w.transpose().mul(form.gram)
    for vec in iproduct(range(ring.size), repeat=dim):
        if all(x == ring.zero for x in wt.mul(Mat(ring, dim, 1, vec)).data):
            out.add(vec)
    return out


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

def test_standard_form_examples():
    assert standard_form(Z2, 1).gram.to_rows() == [[0, 1], [1, 0]]
    assert standard_form(Z4, 1).gram.to_rows() == [[0, 1], [3, 0]]
    empty = standard_form(Z6, 0)
    assert empty.dim == 0 and empty.gram.data == ()
    two = standard_form(Z4, 2)
    assert two.gram.to_rows() == [
        [0, 1, 0, 0],
        [3, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 3, 0],
    ]
    # the nondegeneracy check takes a 12 x 12 determinant
    assert standard_form(Z2, 6).dim == 12


def test_form_validation():
    with pytest.raises(PreconditionError):
        SymplecticForm(Mat.from_rows(Z4, [[1, 0], [0, 1]]))  # diagonal
    with pytest.raises(PreconditionError):
        SymplecticForm(Mat.from_rows(Z4, [[0, 1], [1, 0]]))  # not antisymmetric over Z/4
    with pytest.raises(PreconditionError):
        SymplecticForm(Mat.from_rows(Z4, [[0, 2], [2, 0]]))  # degenerate
    with pytest.raises(PreconditionError):
        SymplecticForm(Mat.from_rows(Z4, [[0]]))  # odd rank
    with pytest.raises(PreconditionError):
        SymplecticForm(Mat.from_rows(Z4, [[0, 1, 0], [3, 0, 0]]))  # not square


def test_symplectic_forms_brute():
    forms2 = symplectic_forms(Z2, 1)
    assert [f.gram.to_rows() for f in forms2] == [[[0, 1], [1, 0]]]
    forms4 = symplectic_forms(Z4, 1)
    assert [f.gram.to_rows() for f in forms4] == [[[0, 1], [3, 0]], [[0, 3], [1, 0]]]
    # 2n = 4 over Z/2: every alternating form with unit determinant
    forms22 = symplectic_forms(Z2, 2)
    assert standard_form(Z2, 2) in forms22
    for f in forms22:
        assert Z2.is_unit(det(f.gram))


def test_basis_check():
    # the columns of a basis are symplectic exactly when the basis is a
    # symplectic map from the standard form to the form
    std = standard_form(Z4, 2)
    assert symplectic_check(Mat.identity(Z4, 4), std, std)
    # swapping a1 <-> b1 negates the pairing: w(b1, a1) = -1 != 1 over Z/4
    swapped = Mat.from_cols(Z4, [std_col(Z4, 4, 1), std_col(Z4, 4, 0),
                                 std_col(Z4, 4, 2), std_col(Z4, 4, 3)])
    assert not symplectic_check(swapped, std, std)
    # over Z/2 the same swap is harmless
    std2 = standard_form(Z2, 1)
    assert symplectic_check(Mat.from_cols(Z2, [(0, 1), (1, 0)]), std2, std2)


def std_col(ring, dim, j):
    return tuple(ring.one if i == j else ring.zero for i in range(dim))


# ---------------------------------------------------------------------------
# perpendiculars
# ---------------------------------------------------------------------------

def test_perp_example_and_involution():
    form = standard_form(Z2, 2)
    w = Mat.from_cols(Z2, [std_col(Z2, 4, 0), std_col(Z2, 4, 1)])
    k = perp(w, form)
    assert column_span_set(k) == brute_perp(Z2, w, form)
    assert column_span_set(k) == column_span_set(
        Mat.from_cols(Z2, [std_col(Z2, 4, 2), std_col(Z2, 4, 3)])
    )
    back = perp(k, form)
    assert column_span_set(back) == column_span_set(w)


def test_perp_over_z4_brute():
    form = standard_form(Z4, 2)
    w = Mat.from_cols(Z4, [(1, 0, 2, 0), (0, 1, 0, 0)])
    assert Z4.is_unit(det(w.transpose().mul(form.gram.mul(w))))
    k = perp(w, form)
    assert column_span_set(k) == brute_perp(Z4, w, form)
    assert column_span_set(perp(k, form)) == column_span_set(w)


def test_perp_degenerate_rejected():
    form = standard_form(Z2, 1)
    with pytest.raises(PreconditionError):
        perp(Mat.from_cols(Z2, [(1, 0)]), form)


# ---------------------------------------------------------------------------
# group orders and hom counts
# ---------------------------------------------------------------------------

def test_sp_order_vs_brute():
    # |Sp_2n(R)| is the SI automorphism count
    def sp_order(ring, n):
        return make_si_category(ring).count_hom(n, n)

    assert sp_order(Z2, 0) == 1
    assert len(brute_symplectic(Z2, standard_form(Z2, 1), 1)) == sp_order(Z2, 1) == 6
    assert len(brute_symplectic(Z4, standard_form(Z4, 1), 1)) == sp_order(Z4, 1) == 48
    assert sp_order(Z2, 2) == 720
    assert sp_order(Z4, 2) == 737280
    assert sp_order(Z6, 1) == sp_order(Z2, 1) * len(brute_symplectic(
        make_ring("Z/3"), standard_form(make_ring("Z/3"), 1), 1))


def test_hom_enumeration_vs_brute():
    si = make_si_category(Z2)
    got = {m.f.data for m in si.hom(1, 2)}
    want = {m.data for m in brute_symplectic(Z2, standard_form(Z2, 1), 2)}
    assert got == want and len(got) == 120
    si4 = make_si_category(Z4)
    got4 = {m.f.data for m in si4.aut(1)}
    want4 = {m.data for m in brute_symplectic(Z4, standard_form(Z4, 1), 1)}
    assert got4 == want4 and len(got4) == 48


def test_hom_counts_and_anchors():
    si = make_si_category(Z2)
    assert len(si.aut(1)) == 6
    assert len(si.hom(1, 2)) == 120
    assert len(si.aut(2)) == 720
    assert len(si.hom(2, 1)) == 0
    assert len(si.hom(0, 2)) == 1
    si6 = make_si_category(Z6)
    assert si6.count_hom(1, 1) == 6 * 24  # Sp_2(Z/2) x Sp_2(Z/3) = SL_2 orders
    assert {m.f.data for m in si6.aut(1)} == {
        m.data for m in brute_symplectic(Z6, standard_form(Z6, 1), 1)
    }


def test_budget_guard():
    si4 = make_si_category(Z4)
    assert si4.count_hom(2, 2) == 737280
    with pytest.raises(BudgetExceeded):
        si4.hom(2, 2)


# ---------------------------------------------------------------------------
# category structure
# ---------------------------------------------------------------------------

def test_compose_identity_and_errors():
    si = make_si_category(Z2)
    f = si.hom(1, 2)[3]
    assert si.compose(si.identity(2), f) == f
    assert si.compose(f, si.identity(1)) == f
    with pytest.raises(PreconditionError):
        si.compose(f, f)
    for g in si.aut(2)[:10]:
        comp = si.compose(g, f)
        assert si.validate(comp)


def test_complement_assemble_roundtrip():
    si = make_si_category(Z2)
    for f in si.hom(1, 2):
        r, j = si.complement_of(f)
        assert r == 1
        assert si.validate(j)
        psi = si.assemble(f, j)
        assert psi is not None and si.validate(psi) and psi.src == psi.dst == 2
        # psi restricted to the two summands recovers f and j
        assert si.compose(psi, si.canonical(1, 2)).f.data == f.f.data
        assert si.compose(psi, si.canonical_last(1, 2)).f.data == j.f.data
    r0, j0 = si.complement_of(si.identity(2))
    assert r0 == 0 and si.assemble(si.identity(2), j0) is not None


def test_complement_over_z4_and_z6():
    for ring in (Z4, Z6):
        si = make_si_category(ring)
        hom = si.hom(1, 2)
        for f in (hom[0], hom[len(hom) // 2], hom[-1]):
            r, j = si.complement_of(f)
            assert r == 1 and si.validate(j)
            assert si.assemble(f, j) is not None


def test_subobject_equal_and_factor_through():
    si = make_si_category(Z2)
    f = si.hom(1, 2)[0]
    for a in si.aut(1):
        assert si.subobject_equal(f, si.compose(f, a))
    g = next(h for h in si.hom(1, 2) if not si.subobject_equal(f, h))
    assert not si.subobject_equal(g, f)
    c = si.factor_through(f, si.compose(f, si.aut(1)[2]))
    assert si.compose(f, c) == si.compose(f, si.aut(1)[2])
    with pytest.raises(PreconditionError):
        si.factor_through(g, f)


def test_slot_blocks_and_flip():
    si = make_si_category(Z2)
    inc = si.slot_inclusion((1,), 2)
    assert inc.f.to_rows() == [[0, 0], [0, 0], [1, 0], [0, 1]]
    fl = si.flip(1, 1)
    assert si.compose(fl, fl) == si.identity(2)
    perm = si.block_permutation((1, 1, 1), (2, 0, 1))
    assert perm.src == perm.dst == 3 and si.validate(perm)
    s = si.monoidal_sum(si.identity(1), si.identity(2))
    assert s == si.identity(3)


def test_axioms_and_group_structure():
    si = make_si_category(Z2)
    rep = check_axioms(si, 2, budget=-1)
    assert rep["ok"], rep
    assert (si.count_hom(1, 2), len(si.aut(2)), si.count_hom(1, 1)) == (120, 720, 6)
    orbit, stabilizer = canonical_orbit(si, 1, 2)
    assert orbit == si.position(1, 2).keys()
    assert stabilizer == 6 == si.count_hom(1, 1)


# ---------------------------------------------------------------------------
# row-adapted factorization
# ---------------------------------------------------------------------------

def test_osi_factor_swap_example():
    swap = Mat.from_rows(Z2, [[0, 1], [1, 0]])
    mor = SiMorphism(swap, standard_form(Z2, 1), standard_form(Z2, 1))
    f1, f2, lam = osi_factor(mor)
    assert f1.f == Mat.identity(Z2, 2)
    assert f2.f == swap
    assert lam == standard_form(Z2, 1)


def test_osi_factor_canonical_is_trivial():
    si = make_si_category(Z2)
    can = si.canonical(1, 2)
    f1, f2, lam = osi_factor(can)
    assert f1.f == can.f and f2.f == Mat.identity(Z2, 2)
    assert lam == standard_form(Z2, 1)


def test_osi_factor_unique_exhaustive():
    """Every f in Hom_SI(Z/2)(R^2, R^4) admits exactly one GL_2 candidate
    h with f . h^{-1} row-adapted, and osi_factor returns it."""
    si = make_si_category(Z2)
    gl2 = [m for m in all_mats(Z2, 2, 2) if try_inverse(m) is not None]
    assert len(gl2) == 6
    for f in si.hom(1, 2):
        hits = []
        for h in gl2:
            cand = f.f.mul(try_inverse(h))
            if row_adapted(cand) is not None:
                hits.append(h)
        assert len(hits) == 1
        f1, f2, lam = osi_factor(f)
        assert f2.f == hits[0]
        assert f1.f.mul(f2.f) == f.f
        assert symplectic_check(f1.f, lam, standard_form(Z2, 2))


def test_osi_factor_lambda_partition():
    """|Hom_SI(std, R^{2n})| = sum over forms lam of |Iso(std, lam)| x
    |Hom_OSI'(lam, R^{2n})|."""
    for ring, n in ((Z2, 2), (Z4, 2)):
        total = make_si_category(ring).count_hom(1, n)
        acc = 0
        for lam in symplectic_forms(ring, 1):
            isos = [
                m for m in all_mats(ring, 2, 2)
                if try_inverse(m) is not None and symplectic_check(m, standard_form(ring, 1), lam)
            ]
            acc += len(isos) * len(osi_prime_hom(lam, n))
        assert acc == total


def test_osi_prime_hom_counts():
    assert len(osi_prime_hom(standard_form(Z2, 1), 1)) == 1
    assert len(osi_prime_hom(standard_form(Z2, 1), 2)) == 20
    lam1, lam2 = symplectic_forms(Z4, 1)
    assert len(osi_prime_hom(lam1, 2)) + len(osi_prime_hom(lam2, 2)) == 15360 // 48


def test_osi_hom_filters_the_si_maps_once(monkeypatch):
    calls = []
    real = si_module.si_hom_from
    monkeypatch.setattr(si_module, "si_hom_from", lambda *args: calls.append(args) or real(*args))
    osi = OsiCategory(Z2)  # not the shared instance, so no hom set is cached
    want = [m for m in brute_symplectic(Z2, standard_form(Z2, 1), 3) if row_adapted(m) is not None]
    assert [f.f for f in osi.hom(1, 3)] == sorted(want, key=lambda m: m.data)
    assert osi.count_hom(1, 3) == len(want) == 336
    assert len(calls) == 1
    with pytest.raises(BudgetExceeded):
        OsiCategory(Z2).hom(1, 3, budget=1000)  # 336 maps, charged for the 2016 SI maps it filters


def test_osi_category():
    osi = make_osi_category(Z2)
    assert len(osi.aut(1)) == 1 and osi.aut(1)[0] == osi.identity(1)
    assert len(osi.hom(1, 2)) == 20
    for f in osi.hom(1, 2):
        assert osi.validate(f)
    comp = osi.compose(osi.hom(2, 3)[0], osi.hom(1, 2)[0])
    assert osi.validate(comp)

