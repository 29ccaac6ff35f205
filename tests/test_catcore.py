"""FI category and axiom-driver tests.

Oracles: independent injection enumeration (filtering all tuples), counting
formulas n!/(n-m)!, and hand-checked block permutation images.
"""

import random
from itertools import product as iproduct

import pytest

from ficat.catcore import Category, FiCategory, FiMorphism, _action_tables, check_axioms
from ficat.errors import InvariantViolation, PreconditionError
from ficat.rings import make_ring
from ficat.si import OsiCategory, SiCategory, make_osi_category, make_si_category
from ficat.vic import OvicCategory, VicCategory, make_ovic_category, make_vic_category
from oracles import canonical_orbit


def brute_injections(m, n):
    out = []
    for t in iproduct(range(n), repeat=m):
        if len(set(t)) == m:
            out.append(t)
    return sorted(out)


def test_fi_hom_matches_brute():
    fi = FiCategory()
    for n in range(5):
        for m in range(5):
            hom = fi.hom(m, n)
            assert sorted(f.images for f in hom) == brute_injections(m, n)
            assert len(hom) == fi.count_hom(m, n)


class ShuffledFI(FiCategory):
    """FI enumerating each hom set in a shuffled order, with one morphism
    of hom(2, 3) optionally repeated in place of another."""

    def __init__(self, repeat=False):
        super().__init__()
        self.repeat = repeat

    def _enumerate_hom(self, m, n):
        mors = list(super()._enumerate_hom(m, n))
        random.Random(m * 10 + n).shuffle(mors)
        if self.repeat and (m, n) == (2, 3):
            mors[-1] = mors[0]
        return mors


def test_hom_sorts_by_key_and_rejects_a_repeated_morphism():
    cat = ShuffledFI()
    for m, n in ((0, 2), (2, 3), (3, 4)):
        hom = cat.hom(m, n)
        assert [f.images for f in hom] == sorted(f.images for f in FiCategory().hom(m, n))
        assert cat.position(m, n) == {cat.key(f): i for i, f in enumerate(hom)}
    with pytest.raises(InvariantViolation, match="duplicate morphisms in hom enumeration"):
        ShuffledFI(repeat=True).hom(2, 3)


def test_fi_compose_identity():
    fi = FiCategory()
    f = FiMorphism(2, 3, (2, 0))
    g = FiMorphism(3, 4, (1, 3, 0))
    assert fi.compose(g, f).images == (0, 1)
    assert fi.compose(fi.identity(4), g) == g
    assert fi.compose(g, fi.identity(3)) == g
    with pytest.raises(PreconditionError):
        fi.compose(f, g)


def test_fi_complement():
    fi = FiCategory()
    f = FiMorphism(2, 4, (3, 1))
    r, j = fi.complement_of(f)
    assert r == 2 and j.images == (0, 2)
    psi = fi.assemble(f, j)
    assert psi.images == (3, 1, 0, 2)
    assert fi.compose(psi, fi.canonical(2, 4)) == f
    assert fi.compose(psi, fi.canonical_last(2, 4)) == j
    # colliding images cannot assemble
    assert fi.assemble(f, FiMorphism(1, 4, (3,))) is None


def test_fi_block_permutation_and_flip():
    fi = FiCategory()
    sigma = fi.flip(1, 2)
    assert sigma.images == (2, 0, 1)
    tau = fi.block_permutation((2, 1, 1), (2, 0, 1))
    # source blocks {0,1}, {2}, {3}; target slots hold block2, block0, block1,
    # so target offsets are 0, 1, 3 and block0 lands at positions 1 and 2
    assert tau.images == (1, 2, 3, 0)
    assert fi.compose(fi.flip(2, 1), sigma) == fi.identity(3)


def test_fi_slot_inclusion_and_factor_through():
    fi = FiCategory()
    s = fi.slot_inclusion((0, 2, 3), 5)
    assert s.images == (0, 2, 3)
    j2 = fi.slot_inclusion((1, 2, 4), 5)
    j1 = fi.slot_inclusion((4, 2), 5)
    c = fi.factor_through(j2, j1)
    assert fi.compose(j2, c) == j1
    with pytest.raises(PreconditionError):
        fi.factor_through(j2, fi.slot_inclusion((0,), 5))


def test_fi_monoidal_sum():
    fi = FiCategory()
    f = FiMorphism(1, 2, (1,))
    g = FiMorphism(2, 3, (2, 0))
    assert fi.monoidal_sum(f, g).images == (1, 4, 2)


def test_fi_axioms_rank4():
    report = check_axioms(FiCategory(), 4)
    assert report["ok"], report
    assert report["checks"]["associativity"]["sampled_signatures"] == 0
    assert report["checks"]["complement_unique"]["status"] == "pass"


def test_fi_group_structure_report():
    # Aut(4) acts transitively on hom(2, 4); the stabilizer of the canonical
    # inclusion is Aut(2), so |hom(2, 4)| |Aut(2)| = |Aut(4)|
    fi = FiCategory()
    assert (fi.count_hom(2, 4), len(fi.aut(4)), fi.count_hom(2, 2)) == (12, 24, 2)
    orbit, stabilizer = canonical_orbit(fi, 2, 4)
    assert orbit == fi.position(2, 4).keys()
    assert stabilizer == 2 == fi.count_hom(2, 2)


def precompose_categories():
    z2, z4 = make_ring("Z/2"), make_ring("Z/4")
    return [
        FiCategory(),
        make_vic_category(z4, units=(1, 3)),
        make_vic_category(make_ring("Z/6")),
        make_vic_category(make_ring("Z/2 x Z/2")),
        make_ovic_category(z4),
        make_si_category(z2),
        make_osi_category(z2),
    ]


@pytest.mark.parametrize("cat", precompose_categories(), ids=lambda c: c.describe())
def test_precompose_matches_compose(cat):
    """precompose(gs, f) is the loop over compose, key for key; so are
    precompose_keys(gs, f), which FI, VIC and SI build from data, and the
    keys that precompose_each(gs, fs) yields, also where gs spans several
    slices."""
    for n in range(3):
        for m in range(n + 1):
            gs = cat.hom(m, n)
            for l in range(m + 1):
                for f in cat.hom(l, m):
                    want = [cat.key(cat.compose(g, f)) for g in gs]
                    assert [cat.key(x) for x in cat.precompose(gs, f)] == want
                    assert cat.precompose_keys(gs, f) == want
                    assert cat.precompose([], f) == [] == cat.precompose_keys([], f)
                fs = cat.hom(l, m)[:3]
                got = list(cat.precompose_each(gs, fs))
                assert got == [tuple(cat.key(cat.compose(g, f)) for f in fs) for g in gs]
    f = cat.identity(1)
    g = cat.identity(2)
    with pytest.raises(PreconditionError) as want:
        cat.compose(g, f)
    for batched in (cat.precompose, cat.precompose_keys):
        with pytest.raises(PreconditionError) as got:
            batched([cat.identity(1), g], f)
        assert str(got.value) == str(want.value) == "composition rank mismatch: 1 vs 2"


class ComposeLoopFI(FiCategory):
    """FI with the base precompose_keys, which loops over compose, so that a
    compose overridden in a subclass reaches every batched caller."""

    precompose_keys = Category.precompose_keys


class OneWrongPair(ComposeLoopFI):
    """FI with g . id_2 answered as g . flip for g the canonical 2 -> 3,
    and the base precompose and precompose_keys, which loop over this compose."""

    def compose(self, g, f):
        if g == self.canonical(2, 3) and f == self.identity(2):
            f = self.flip(1, 1)
        return super().compose(g, f)


def test_check_axioms_reports_a_wrong_composite():
    """Each law fails with its detail string; the counters stop at the first
    failing triple of each signature."""
    report = check_axioms(OneWrongPair(), 3)
    assert not report["ok"]
    checks = report["checks"]
    assert checks["identity"] == {
        "status": "fail", "checked": 24, "failures": ["unit law fails at hom(2,3)"],
    }
    assert checks["associativity"] == {
        "status": "fail",
        "signatures": 35,
        "exhaustive_signatures": 35,
        "sampled_signatures": 0,
        "checked": 829,
        "failures": [
            "associativity fails at (1,2,2,3)",
            "associativity fails at (2,2,2,3)",
            "associativity fails at (2,2,3,3)",
        ],
    }
    assert checks["mono"] == {
        "status": "fail", "checked": 43, "iso_skipped": 10,
        "failures": ["morphism in hom(2,3) is not monic"],
    }


# ---------------------------------------------------------------------------
# associativity on action tables against composing every triple
# ---------------------------------------------------------------------------

def oracle_associativity(cat, max_rank, seed, assoc_cap, assoc_samples):
    """The associativity record of check_axioms, composing one triple at a
    time with cat.compose: every triple of a signature with at most
    assoc_cap triples, else assoc_samples seeded draws, stopping at the first
    failing triple of a signature."""
    rng = random.Random(seed)
    rec = {"status": "pass", "signatures": 0, "exhaustive_signatures": 0, "sampled_signatures": 0, "checked": 0}
    for n in range(max_rank + 1):
        for m in range(n + 1):
            for l in range(m + 1):
                for k in range(l + 1):
                    hs_e, hs_f, hs_g = cat.hom(k, l), cat.hom(l, m), cat.hom(m, n)
                    total = len(hs_e) * len(hs_f) * len(hs_g)
                    if total == 0:
                        continue
                    rec["signatures"] += 1
                    if total <= assoc_cap:
                        rec["exhaustive_signatures"] += 1
                        triples = iproduct(hs_e, hs_f, hs_g)
                    else:
                        rec["sampled_signatures"] += 1
                        triples = (
                            (rng.choice(hs_e), rng.choice(hs_f), rng.choice(hs_g)) for _ in range(assoc_samples)
                        )
                    for e, f, g in triples:
                        if cat.compose(cat.compose(g, f), e) != cat.compose(g, cat.compose(f, e)):
                            rec["status"] = "fail"
                            rec.setdefault("failures", []).append(
                                "associativity fails at (%d,%d,%d,%d)" % (k, l, m, n))
                            break
                        rec["checked"] += 1
    return rec


def associativity_cases():
    z2, z4 = make_ring("Z/2"), make_ring("Z/4")
    return [
        (FiCategory(), 4),
        (make_vic_category(z4, units=(1, 3)), 2),
        (make_vic_category(make_ring("Z/6")), 2),
        (make_si_category(z2), 2),
        (make_ovic_category(z4), 3),
        (make_osi_category(z2), 2),
    ]


@pytest.mark.parametrize("case", associativity_cases(), ids=lambda c: "%s-%d" % (c[0].describe(), c[1]))
def test_associativity_tables_match_composing_every_triple(case):
    """Exhaustive up to the benchmark's assoc_cap, the same seeded draws beyond."""
    cat, rank = case
    got = check_axioms(cat, rank, seed=5, assoc_cap=10_000, assoc_samples=300)["checks"]["associativity"]
    assert got == oracle_associativity(cat, rank, 5, 10_000, 300)
    assert got["status"] == "pass" and got["exhaustive_signatures"] > 0


class WrongInHom(ComposeLoopFI):
    """FI with flip . can_2 answered as can_2 for can_2 the canonical 1 -> 2:
    a wrong composite that is still a morphism of hom(1, 2)."""

    def compose(self, g, f):
        if g == self.flip(1, 1) and f == self.canonical(1, 2):
            return f
        return super().compose(g, f)


class WrongOutsideHom(ComposeLoopFI):
    """FI with flip . id_2 answered by the non-injective (0, 0), which is no
    morphism of hom(2, 2)."""

    def compose(self, g, f):
        if g == self.flip(1, 1) and f == self.identity(2):
            return FiMorphism(2, 2, (0, 0))
        return super().compose(g, f)


@pytest.mark.parametrize("cat", [OneWrongPair(), WrongInHom()], ids=lambda c: type(c).__name__)
def test_associativity_tables_report_a_wrong_composite_like_the_oracle(cat):
    for cap, samples in ((200_000, 20_000), (20, 300)):
        got = check_axioms(cat, 3, seed=2, assoc_cap=cap, assoc_samples=samples)["checks"]["associativity"]
        assert got["status"] == "fail"
        assert got == oracle_associativity(cat, 3, 2, cap, samples)


def test_a_composite_outside_its_hom_set_falls_back_to_the_composites():
    cat = WrongOutsideHom()
    act = _action_tables(cat, None)
    assert act(2, 2, 2) is None and act(1, 2, 3) is not None
    got = check_axioms(cat, 3)["checks"]["associativity"]
    assert got == oracle_associativity(cat, 3, 0, 200_000, 20_000)
    assert got == {
        "status": "fail",
        "signatures": 35,
        "exhaustive_signatures": 35,
        "sampled_signatures": 0,
        "checked": 910,
        "failures": [
            "associativity fails at (1,2,2,2)",
            "associativity fails at (2,2,2,2)",
            "associativity fails at (2,2,2,3)",
        ],
    }


def test_count_hom_rejects_bad_ranks_in_every_category():
    # count_hom and position validate both ranks before any category counts
    # or looks up a cache, as hom does
    z2 = make_ring("Z/2")
    for cat in (FiCategory(), VicCategory(z2), OvicCategory(z2), SiCategory(z2), OsiCategory(z2)):
        cat.hom(1, 2)
        for m, n in ((-1, 2), (1, -1), (1.0, 2), (1, "2"), ([1], 2)):
            with pytest.raises(PreconditionError):
                cat.count_hom(m, n)
            with pytest.raises(PreconditionError):
                cat.hom(m, n)
            with pytest.raises(PreconditionError):
                cat.position(m, n)


def test_check_axioms_rejects_bad_sampling_sizes():
    fi = FiCategory()
    for cap, samples in ((0, -5), (-1, 10), ("x", 10), (10, 2.5)):
        with pytest.raises(PreconditionError):
            check_axioms(fi, 3, assoc_cap=cap, assoc_samples=samples)
    # zero stays allowed: every signature is then sampled, none drawn
    report = check_axioms(fi, 2, assoc_cap=0, assoc_samples=0)
    assert report["ok"] and report["checks"]["associativity"]["checked"] == 0
