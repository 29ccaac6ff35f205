"""Tests for the word orders, the insertion-chain order on adapted split
injections, the pair-deletion order on row-adapted symplectic maps, and the
explicit morphisms realizing comparable pairs."""

import random
from itertools import combinations, product as iproduct

import pytest

from ficat.errors import BudgetExceeded, PreconditionError
from ficat.matrices import Mat, lift_mats, local_parts, row_adapted
from ficat.rings import make_ring
from ficat.si import SiMorphism, make_osi_category, make_si_category, osi_prime_hom, si_hom_from, standard_form
from ficat.vic import OvicMorphism, make_ovic_category, ovic_hom_enumerate
from ficat.wporder import (
    ORDERS,
    SPADE,
    osi_insertion_phi,
    osi_preceq,
    osi_preceq_bfs,
    osi_total_cmp,
    osi_total_key,
    osi_words,
    ovic_insertion,
    ovic_phi_for,
    ovic_preceq,
    ovic_preceq_bfs,
    ovic_total_cmp,
    ovic_total_key,
    ovic_words,
    order_of,
    word_leq,
)
from oracles import symplectic_forms

R2 = make_ring("Z/2")
R4 = make_ring("Z/4")
R6 = make_ring("Z/6")
R16 = make_ring("Z/16")


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def brute_higman(w1, w2):
    """Subsequence embedding by exhaustive position choice."""
    for idx in combinations(range(len(w2)), len(w1)):
        if all(w1[i] == w2[j] for i, j in enumerate(idx)):
            return True
    return False


def tilde_leq(f, g):
    """The covered-subsequence prefilter on the OVIC word encodings."""
    return all(word_leq("tilde", wf, wg) for wf, wg in zip(ovic_words(f), ovic_words(g)))


def brute_tilde(w1, w2):
    """Covered subsequence embedding by exhaustive position choice: every
    skipped position must repeat a letter already matched to its left."""
    n1, n2 = len(w1), len(w2)
    for idx in combinations(range(n2), n1):
        if any(w1[i] != w2[j] for i, j in enumerate(idx)):
            continue
        matched = set(idx)
        ok = True
        for j in range(n2):
            if j in matched:
                continue
            seen = set(w1[i] for i, jj in enumerate(idx) if jj < j)
            if w2[j] not in seen:
                ok = False
                break
        if ok:
            return True
    return False


def morphism_successors(mor):
    """All single-insertion-step successors of a local-ring morphism, built
    by composing with the elementary insertion morphism.  Checks on the way
    that the successor's word is the word-level insertion."""
    ring = mor.ring
    n = mor.dst
    word = ovic_words(mor)[0]
    pivots1 = tuple(s + 1 for s in mor.profile.per_factor[0])
    out = set()
    for k0 in range(n):
        if word[k0] is SPADE:
            continue
        for l0 in range(k0, n):
            phi = ovic_insertion(ring, n, k0 + 1, l0 + 1, pivots1, mor.fp.col(k0))
            succ = OvicMorphism(phi.f.mul(mor.f), mor.fp.mul(phi.fp))
            assert ovic_words(succ)[0] == word[:l0] + (word[k0],) + word[l0:]
            out.add(succ)
    return out


def closure_reaches(f, g):
    """Whether g is reachable from f by insertion steps at the morphism
    level, the defining breadth-first oracle over a local ring."""
    if f == g:
        return True
    frontier = {f}
    while frontier:
        nxt = set()
        for m in frontier:
            if m.dst >= g.dst:
                continue
            nxt.update(morphism_successors(m))
        if g in nxt:
            return True
        frontier = set(m for m in nxt if m.dst < g.dst)
    return False


def osi_preceq_subsets(f, g):
    """Oracle on the matrices, with no word encoding: in every local factor
    some set of pivot-free coordinate pairs of g deletes down to f."""
    if f.dst > g.dst:
        return False
    for pivots, f_i, g_i in zip(row_adapted(g.f).per_factor, local_parts(f.f), local_parts(g.f)):
        free = [t for t in range(g.dst) if 2 * t not in pivots and 2 * t + 1 not in pivots]
        if not any(
            g_i.delete_rows([r for t in pairs for r in (2 * t, 2 * t + 1)]) == f_i
            for pairs in combinations(free, g.dst - f.dst)
        ):
            return False
    return True


def random_word(rng, alphabet, max_len):
    return tuple(rng.choice(alphabet) for _ in range(rng.randrange(max_len + 1)))


def ovic(ring, frows, fprows):
    return OvicMorphism(Mat.from_rows(ring, frows), Mat.from_rows(ring, fprows))


# ---------------------------------------------------------------------------
# word orders
# ---------------------------------------------------------------------------

def test_word_leq_examples():
    assert word_leq("higman", "ab", "acb") is True
    assert word_leq("higman", "ba", "ab") is False
    assert word_leq("higman", "", "xyz") is True
    assert word_leq("tilde", "ab", "aab") is True
    assert word_leq("tilde", "", "a") is False
    assert word_leq("tilde", "", "") is True
    assert word_leq("tilde", "ab", "acb") is False
    with pytest.raises(PreconditionError):
        word_leq("lexicographic", "a", "ab")


def test_word_leq_against_brute_exhaustive():
    words = []
    for length in range(5):
        words.extend(iproduct("ab", repeat=length))
    assert len(words) == 31
    for w1 in words:
        for w2 in words:
            assert word_leq("higman", w1, w2) == brute_higman(w1, w2)
            assert word_leq("tilde", w1, w2) == brute_tilde(w1, w2)


def test_word_leq_against_brute_random():
    rng = random.Random(20260816)
    for _ in range(300):
        w1 = random_word(rng, "abc", 6)
        w2 = random_word(rng, "abc", 6)
        assert word_leq("higman", w1, w2) == brute_higman(w1, w2)
        assert word_leq("tilde", w1, w2) == brute_tilde(w1, w2)


def test_spade_is_a_singleton_letter():
    assert repr(SPADE) == "spade"
    assert SPADE == SPADE
    assert (SPADE, (0,)) == (SPADE, (0,))


# ---------------------------------------------------------------------------
# encodings
# ---------------------------------------------------------------------------

def test_ovic_word_encoding():
    f = ovic(R2, [[1], [1]], [[1, 0]])
    (w,) = ovic_words(f)
    assert w == (SPADE, ((1,), (0,)))
    # rank zero source: every letter is the empty pair
    z = OvicMorphism(Mat(R2, 2, 0, ()), Mat(R2, 0, 2, ()))
    (wz,) = ovic_words(z)
    assert wz == (((), ()), ((), ()))
    # product rings encode one word per local factor
    m = ovic(R6, [[1], [2]], [[1, 0]])
    w2, w3 = ovic_words(m)
    assert w2 == (SPADE, ((0,), (0,)))
    assert w3 == (SPADE, ((2,), (0,)))


# ---------------------------------------------------------------------------
# the elementary insertion morphism
# ---------------------------------------------------------------------------

def test_insertion_rank_one_example():
    phi = ovic_insertion(R2, 1, 1, 1, (1,), (0,))
    assert phi.f.to_rows() == [[1], [1]]
    assert phi.fp.to_rows() == [[0, 1]]


def test_insertion_general_position():
    phi = ovic_insertion(R4, 2, 1, 2, (2,), (2,))
    assert phi.f.to_rows() == [[1, 0], [1, 0], [2, 1]]
    assert phi.fp.to_rows() == [[1, 0, 0], [0, 2, 1]]
    assert phi.fp.mul(phi.f) == Mat.identity(R4, 2)


def test_insertion_preconditions():
    with pytest.raises(PreconditionError):
        ovic_insertion(R6, 1, 1, 1, (1,), (0,))  # product ring
    with pytest.raises(PreconditionError):
        ovic_insertion(R2, 2, 2, 1, (1,), (0,))  # k > l
    with pytest.raises(PreconditionError):
        ovic_insertion(R2, 2, 1, 3, (2,), (0,))  # l > n
    with pytest.raises(PreconditionError):
        ovic_insertion(R4, 2, 1, 2, (2,), (1,))  # unit entry at a late pivot
    with pytest.raises(PreconditionError):
        ovic_insertion(R4, 2, 1, 2, (3,), (2,))  # pivot out of range
    for n, k, pivot in (("2", 1, 1), (2, 1.0, 1), (2, 1, "1")):  # not an integer
        with pytest.raises(PreconditionError):
            ovic_insertion(R2, n, k, 1, (pivot,), (0,))
    for pivots, v in ((5, (0,)), ((1,), 7)):  # not a sequence
        with pytest.raises(PreconditionError):
            ovic_insertion(R4, 3, 1, 2, pivots, v)
    # a unit entry at a pivot strictly below l is allowed
    phi = ovic_insertion(R4, 2, 2, 2, (1,), (1,))
    assert phi.fp.mul(phi.f) == Mat.identity(R4, 2)


# ---------------------------------------------------------------------------
# the chain order
# ---------------------------------------------------------------------------

def test_chain_examples():
    for b in (0, 1):
        a = ovic(R2, [[1], [b]], [[1, 0]])
        c = ovic(R2, [[1], [b], [b]], [[1, 0, 0]])
        assert ovic_preceq(a, c) is True
        assert ovic_preceq_bfs(a, c) is True
        assert ovic_preceq(c, a) is False
        assert ovic_preceq(a, a) is True


def test_chain_incomparable_pair():
    p = ovic(R2, [[1], [0]], [[1, 0]])
    q = ovic(R2, [[0], [1]], [[0, 1]])
    assert ovic_preceq(p, q) is False
    assert ovic_preceq(q, p) is False
    assert ovic_total_cmp(p, q) == -1
    assert ovic_total_cmp(q, p) == 1


def test_covered_subsequence_over_accepts():
    # the covered-subsequence prefilter accepts this pair, the chain order
    # does not: the only insertion successor of the smaller word duplicates
    # the letter before the pivot, never after it
    f = ovic(R2, [[1], [1]], [[0, 1]])
    g = ovic(R2, [[1], [1], [1]], [[0, 1, 0]])
    assert tilde_leq(f, g) is True
    assert ovic_preceq(f, g) is False
    assert ovic_preceq_bfs(f, g) is False


def test_chain_matches_morphism_closure():
    els = []
    for n in (1, 2, 3):
        els.extend(ovic_hom_enumerate(R2, 1, n))
    assert len(els) == 35
    related = 0
    for a in els:
        for b in els:
            expected = closure_reaches(a, b)
            assert ovic_preceq(a, b) == expected
            assert ovic_preceq_bfs(a, b) == expected
            if expected:
                related += 1
            if expected and a != b:
                assert tilde_leq(a, b) is True
    assert related > len(els)


def test_chain_rank_zero_source():
    els = [ovic_hom_enumerate(R2, 0, n)[0] for n in (0, 1, 2)]
    assert [m.dst for m in els] == [0, 1, 2]
    assert ovic_preceq(els[1], els[2]) is True
    assert ovic_preceq_bfs(els[1], els[2]) is True
    assert ovic_preceq(els[0], els[1]) is False  # no letter to duplicate
    phi = ovic_phi_for(els[1], els[2])
    assert phi.f.mul(els[1].f) == els[2].f


def test_chain_requires_matching_shapes():
    a = ovic(R2, [[1], [0]], [[1, 0]])
    z = OvicMorphism(Mat(R2, 2, 0, ()), Mat(R2, 0, 2, ()))
    with pytest.raises(PreconditionError):
        ovic_preceq(a, z)
    b4 = ovic(R4, [[1], [0]], [[1, 0]])
    with pytest.raises(PreconditionError):
        ovic_preceq(a, b4)
    with pytest.raises(PreconditionError):
        ovic_total_cmp(a, b4)


# ---------------------------------------------------------------------------
# realizing morphisms
# ---------------------------------------------------------------------------

def test_phi_recomposes_everywhere():
    els = []
    for n in (1, 2, 3):
        els.extend(ovic_hom_enumerate(R2, 1, n))
    for a in els:
        for b in els:
            if not ovic_preceq(a, b):
                continue
            phi = ovic_phi_for(a, b)
            assert phi.f.mul(a.f) == b.f
            assert a.fp.mul(phi.fp) == b.fp
    p = ovic(R2, [[1], [0]], [[1, 0]])
    q = ovic(R2, [[0], [1]], [[0, 1]])
    assert ovic_phi_for(p, p).f == Mat.identity(R2, 2)
    with pytest.raises(PreconditionError):
        ovic_phi_for(p, q)


def test_phi_composition_is_monotone():
    cat = make_ovic_category(R2)
    els = []
    for n in (1, 2, 3):
        els.extend(ovic_hom_enumerate(R2, 1, n))
    checked = 0
    for a in els:
        for b in els:
            if a == b or not ovic_preceq(a, b):
                continue
            phi = ovic_phi_for(a, b)
            for a1 in els:
                if a1.dst != a.dst or ovic_total_cmp(a1, a) != -1:
                    continue
                assert ovic_total_cmp(cat.compose(phi, a1), b) == -1
                checked += 1
    assert checked > 0


def test_phi_product_ring():
    a = ovic(R6, [[1], [2]], [[1, 0]])
    c = ovic(R6, [[1], [2], [2]], [[1, 0, 0]])
    assert ovic_preceq(a, c) is True
    assert ovic_preceq_bfs(a, c) is True
    phi = ovic_phi_for(a, c)
    assert phi.f.mul(a.f) == c.f
    assert a.fp.mul(phi.fp) == c.fp
    # relation must hold in every local factor at once
    b = ovic(R6, [[1], [3], [2]], [[1, 0, 0]])
    assert ovic_preceq(a, b) is False
    assert ovic_preceq_bfs(a, b) is False


def test_product_ring_agreement():
    els = []
    for n in (1, 2):
        els.extend(ovic_hom_enumerate(R6, 1, n))
    assert len(els) == 73
    for a in els:
        for b in els:
            assert ovic_preceq(a, b) == ovic_preceq_bfs(a, b)


# ---------------------------------------------------------------------------
# the total order
# ---------------------------------------------------------------------------

def test_total_order_laws():
    els = []
    for n in (1, 2, 3):
        els.extend(ovic_hom_enumerate(R2, 1, n))
    keys = set(ovic_total_key(m) for m in els)
    assert len(keys) == len(els)
    for a in els:
        for b in els:
            c = ovic_total_cmp(a, b)
            assert c in (-1, 0, 1)
            assert c == -ovic_total_cmp(b, a)
            assert (c == 0) == (a == b)
            if ovic_preceq(a, b) and a != b:
                assert c == -1


def test_total_order_regression_z16():
    f1 = ovic(R16, [[0], [1]], [[2, 1]])
    f2 = ovic(R16, [[0], [1]], [[6, 1]])
    g1 = ovic(R16, [[0, 0], [1, 0], [0, 1]], [[2, 1, 0], [0, 0, 1]])
    g2 = ovic(R16, [[0, 0], [1, 0], [0, 1]], [[6, 1, 0], [0, 0, 1]])
    cat = make_ovic_category(R16)
    c11, c21 = cat.compose(g1, f1), cat.compose(g1, f2)
    c12, c22 = cat.compose(g2, f1), cat.compose(g2, f2)
    assert c11.fp.to_rows() == [[4, 2, 1]]
    assert c21.fp.to_rows() == [[12, 6, 1]]
    assert c12.fp.to_rows() == [[12, 2, 1]]
    assert c22.fp.to_rows() == [[4, 6, 1]]
    assert ovic_total_cmp(f1, f2) == -1
    assert ovic_total_cmp(c11, c21) == -1
    # composing with a different splitting of the same surjection can flip
    # the comparison of the composites
    assert ovic_total_cmp(c12, c22) == 1


# ---------------------------------------------------------------------------
# the pair-deletion order
# ---------------------------------------------------------------------------

def test_osi_word_encoding():
    si = make_si_category(R2)
    can = si.canonical(1, 2)
    (w,) = osi_words(can)
    assert w == ((SPADE, SPADE), (((0, 0)), (0, 0)))
    # a map that is not row-adapted has no encoding
    bad = next(m for m in si_hom_from(standard_form(R2, 1), 2) if row_adapted(m.f) is None)
    with pytest.raises(PreconditionError):
        osi_words(bad)


def test_osi_canonical_phi_is_canonical():
    si = make_si_category(R2)
    can24 = si.canonical(1, 2)
    can26 = si.canonical(1, 3)
    assert osi_preceq(can24, can26) is True
    assert osi_preceq_subsets(can24, can26) is True
    assert osi_preceq_bfs(can24, can26) is True
    assert osi_preceq(can26, can24) is False
    phi = osi_insertion_phi(can24, can26)
    assert phi.f == si.canonical(2, 3).f
    assert osi_insertion_phi(can24, can24).f == Mat.identity(R2, 4)


def test_osi_agreement_and_phi():
    std = standard_form(R2, 1)
    els = []
    for n in (1, 2):
        els.extend(osi_prime_hom(std, n))
    assert len(els) == 21
    related = 0
    for a in els:
        for b in els:
            x = osi_preceq(a, b)
            assert x == osi_preceq_subsets(a, b)
            assert x == osi_preceq_bfs(a, b)
            if x:
                related += 1
                phi = osi_insertion_phi(a, b)  # symplectic by construction
                assert phi.f.mul(a.f) == b.f
                assert row_adapted(phi.f) is not None
    assert related > len(els)
    p, q = els[1], els[2]
    with pytest.raises(PreconditionError):
        osi_insertion_phi(p, q)


def test_osi_total_order_laws():
    std = standard_form(R2, 1)
    els = []
    for n in (1, 2):
        els.extend(osi_prime_hom(std, n))
    keys = set(osi_total_key(m) for m in els)
    assert len(keys) == len(els)
    for a in els:
        for b in els:
            c = osi_total_cmp(a, b)
            assert c == -osi_total_cmp(b, a)
            assert (c == 0) == (a == b)
            if osi_preceq(a, b) and not (a == b):
                assert c == -1


def test_osi_preconditions():
    std1 = standard_form(R4, 1)
    other = next(f for f in symplectic_forms(R4, 1) if f != std1)
    f_std = osi_prime_hom(std1, 2)[0]
    f_other = osi_prime_hom(other, 2)[0]
    with pytest.raises(PreconditionError):
        osi_preceq(f_std, f_other)  # different source forms
    skew = SiMorphism(Mat.identity(R4, 2), other, other, check=True)
    with pytest.raises(PreconditionError):
        osi_preceq(skew, f_other)  # non-standard target


def test_osi_product_ring():
    si6 = make_si_category(R6)
    f = si6.canonical(1, 2)
    g2 = si6.canonical(1, 3)
    # in the Z/3 factor, give the middle pair a nonzero first row so the
    # factors must delete different pairs
    rows3 = [[1, 0], [0, 1], [1, 0], [0, 0], [0, 0], [0, 0]]
    g3 = Mat.from_rows(make_ring("Z/3"), rows3)
    g_mat = lift_mats(R6, [local_parts(g2.f)[0], g3])
    g = SiMorphism(g_mat, standard_form(R6, 1), standard_form(R6, 3), check=True)
    assert row_adapted(g.f) is not None
    assert osi_preceq(f, g) is True
    assert osi_preceq_subsets(f, g) is True
    assert osi_preceq_bfs(f, g) is True
    phi = osi_insertion_phi(f, g)
    assert phi.f.mul(f.f) == g.f
    assert row_adapted(phi.f) is not None


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------

def test_budget_guards():
    si = make_si_category(R2)
    with pytest.raises(BudgetExceeded):
        osi_preceq_bfs(si.canonical(1, 2), si.canonical(1, 3), budget=0)
    a = ovic(R2, [[1], [1]], [[1, 0]])
    c = ovic(R2, [[1], [1], [1], [1]], [[1, 0, 0, 0]])
    with pytest.raises(BudgetExceeded):
        ovic_preceq_bfs(a, c, budget=0)
    assert ovic_preceq_bfs(a, c) is True
    assert ovic_preceq(a, c) is True


# ---------------------------------------------------------------------------
# the order table
# ---------------------------------------------------------------------------

def test_order_table_pairs_categories_with_their_functions():
    ovic = order_of(make_ovic_category(R4))
    assert (ovic.preceq, ovic.preceq_bfs, ovic.total_key, ovic.total_cmp, ovic.phi) == (
        ovic_preceq, ovic_preceq_bfs, ovic_total_key, ovic_total_cmp, ovic_phi_for)
    osi = order_of(make_osi_category(R2))
    assert (osi.preceq, osi.preceq_bfs, osi.total_key, osi.total_cmp, osi.phi) == (
        osi_preceq, osi_preceq_bfs, osi_total_key, osi_total_cmp, osi_insertion_phi)
    assert sorted(ORDERS) == ["OSI", "OVIC"]
    with pytest.raises(PreconditionError, match="require the OVIC or OSI category, not SI"):
        order_of(make_si_category(R2))


# ---------------------------------------------------------------------------
# encodings computed once per morphism object
# ---------------------------------------------------------------------------

def _encoded_posets():
    """Fresh OVIC(Z/4) and OSI(Z/2) categories, so that none of their
    morphisms has been encoded, each with a rebuild of a morphism from its
    data and the category's two encoders."""
    from ficat.si import OsiCategory
    from ficat.vic import OvicCategory

    return [
        (OvicCategory(R4), lambda m: OvicMorphism(m.f, m.fp), ovic_words, ovic_total_key),
        (OsiCategory(R2), lambda m: SiMorphism(m.f, m.src_form, m.dst_form), osi_words, osi_total_key),
    ]


@pytest.mark.parametrize("case", _encoded_posets(), ids=lambda c: c[0].describe())
def test_cached_encodings_match_a_rebuilt_morphism(case):
    cat, rebuild, words, total_key = case
    for mor in [f for n in range(1, 4) for f in cat.hom(1, n)]:
        before = (hash(mor), repr(mor))
        got_words, got_key = words(mor), total_key(mor)
        assert words(mor) is got_words and total_key(mor) is got_key
        fresh = rebuild(mor)
        assert (got_words, got_key) == (words(fresh), total_key(fresh))
        assert fresh == mor and (hash(mor), repr(mor)) == (hash(fresh), repr(fresh)) == before


def test_encoders_keep_their_type_checks_on_encoded_morphisms():
    a = ovic(R2, [[1], [1]], [[1, 0]])
    s = make_osi_category(R2).hom(1, 2)[0]
    ovic_words(a), ovic_total_key(a), osi_words(s), osi_total_key(s)  # both now carry filled slots
    with pytest.raises(PreconditionError):
        osi_words(a)
    with pytest.raises(PreconditionError):
        osi_total_key(a)
    with pytest.raises(PreconditionError):
        ovic_words(s)
    with pytest.raises(PreconditionError):
        ovic_total_key(s)


@pytest.mark.parametrize("case", _encoded_posets(), ids=lambda c: c[0].describe())
def test_order_round_encodes_each_morphism_once(case, monkeypatch):
    """preceq and the total order on every pair whose first element has
    target rank <= 2, and phi on every related pair (the pair set of the
    benchmark's algebra workload), build each encoding once per morphism."""
    import ficat.wporder as wp

    cat = case[0]
    order = order_of(cat)
    built = []
    for name in ("_ovic_words", "_ovic_total_key", "_osi_words", "_osi_total_key", "_row_profile"):
        def counted(mor, build=getattr(wp, name), name=name):
            built.append((name, id(mor)))
            return build(mor)
        monkeypatch.setattr(wp, name, counted)
    elements = [f for n in range(1, 4) for f in cat.hom(1, n)]
    pairs = [(f, g) for f in elements if f.dst <= 2 for g in elements]
    related = [(f, g) for f, g in pairs if order.preceq(f, g)]
    for f, g in pairs:
        order.total_cmp(f, g)
    for f, g in related:
        if f != g:
            order.phi(f, g)
    assert related and len(built) == len(set(built))
    assert len({i for _, i in built}) == len(elements)
