"""Ring construction, unit search, and local decomposition tests.

Expected values here are either asserted directly from the definitions or
recomputed by independent brute force (exhaustive isomorphism search,
exhaustive inverse search, exhaustive idempotent filtering).
"""

import itertools

import pytest

from ficat.errors import InvariantViolation, PreconditionError
from ficat.rings import FiniteRing, make_ring, prime_power, smallest_prime


def brute_inverse(ring, x):
    for y in range(ring.size):
        if ring.mul(x, y) == ring.one:
            return y
    return None


def check_ring_axioms(ring):
    elems = range(ring.size)
    add, mul, neg = ring.add, ring.mul, ring.neg
    for a in elems:
        assert add(a, ring.zero) == a
        assert mul(a, ring.one) == a
        assert add(a, neg(a)) == ring.zero
        for b in elems:
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            for c in elems:
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_spec_parsing_and_sizes():
    assert make_ring("Z/4").size == 4
    assert make_ring("Z/2 x Z/3").size == 6
    assert make_ring("Z/2 x Z/2 x Z/2").size == 8
    assert make_ring(" Z/6 ").spec == "Z/6"
    assert make_ring("Z/4") is make_ring("Z/4")
    with pytest.raises(PreconditionError):
        make_ring("Z/1")
    with pytest.raises(PreconditionError):
        make_ring("Z/0")
    with pytest.raises(PreconditionError):
        make_ring("GF(4)")
    with pytest.raises(PreconditionError):
        make_ring("Z/4096 x Z/2")
    # boundary size is allowed
    assert make_ring("Z/4096").size == 4096


def test_ring_axioms_exhaustive_small():
    for spec in ["Z/2", "Z/4", "Z/5", "Z/6", "Z/2 x Z/3", "Z/16", "Z/2 x Z/2", "Z/12"]:
        check_ring_axioms(make_ring(spec))


def test_product_matches_crt_isomorphism():
    # oracle: exhaustive search for a ring isomorphism Z/2 x Z/3 -> Z/6
    prod = make_ring("Z/2 x Z/3")
    z6 = make_ring("Z/6")
    found = None
    for perm in itertools.permutations(range(6)):
        if perm[prod.zero] != z6.zero or perm[prod.one] != z6.one:
            continue
        ok = all(
            perm[prod.add(a, b)] == z6.add(perm[a], perm[b])
            and perm[prod.mul(a, b)] == z6.mul(perm[a], perm[b])
            for a in range(6)
            for b in range(6)
        )
        if ok:
            found = perm
            break
    assert found is not None


def residue_digits(ring, x):
    """Element index -> per-factor residues, first factor most significant."""
    digits = []
    for n in reversed(ring.moduli):
        x, d = divmod(x, n)
        digits.append(d)
    return tuple(reversed(digits))


def test_mixed_radix_encoding_first_factor_most_significant():
    ring = make_ring("Z/2 x Z/3")
    # index = a*3 + b for (a, b) in Z/2 x Z/3
    assert residue_digits(ring, 0) == (0, 0)
    assert residue_digits(ring, 1) == (0, 1)
    assert residue_digits(ring, 3) == (1, 0)
    assert residue_digits(ring, 5) == (1, 2)
    for x in range(ring.size):
        assert ring.encode(residue_digits(ring, x)) == x
        assert residue_digits(ring, x) == tuple(res[x] for res in ring.residues)
    assert ring.encode((1, 2)) == 5
    assert ring.one == ring.encode((1, 1)) == 4


def test_units_against_brute_force():
    for spec in ["Z/2", "Z/4", "Z/6", "Z/2 x Z/3", "Z/12", "Z/16", "Z/9"]:
        ring = make_ring(spec)
        for x in range(ring.size):
            assert ring.inverse(x) == brute_inverse(ring, x)


def test_unit_examples():
    z4 = make_ring("Z/4")
    assert z4.units() == (1, 3)
    assert z4.inverse(3) == 3
    assert z4.inverse(2) is None
    z6 = make_ring("Z/6")
    assert z6.units() == (1, 5)


def test_reduce_int():
    z6 = make_ring("Z/6")
    assert z6.reduce_int(7) == 1
    assert z6.reduce_int(-1) == 5
    prod = make_ring("Z/2 x Z/3")
    assert prod.reduce_int(5) == prod.encode((1, 2))
    assert prod.reduce_int(0) == 0
    assert prod.reduce_int(1) == prod.one
    assert prod.char == 6


def test_smallest_prime():
    assert smallest_prime(2) == 2
    assert smallest_prime(9) == 3
    assert smallest_prime(35) == 5
    assert smallest_prime(13) == 13
    assert prime_power(16) == (2, 4)
    assert prime_power(9) == (3, 2)


def test_local_factors_examples():
    assert [r.spec for r in make_ring("Z/6").local.factors] == ["Z/2", "Z/3"]
    assert [r.spec for r in make_ring("Z/12").local.factors] == ["Z/4", "Z/3"]
    assert [r.spec for r in make_ring("Z/4").local.factors] == ["Z/4"]
    assert [r.spec for r in make_ring("Z/2 x Z/3").local.factors] == ["Z/2", "Z/3"]
    assert [r.spec for r in make_ring("Z/60").local.factors] == ["Z/4", "Z/3", "Z/5"]
    assert make_ring("Z/16").is_local
    assert not make_ring("Z/6").is_local


def test_local_idempotents_oracle_z6():
    # independent filter: idempotents of Z/6 are {0,1,3,4}, primitive ones {3,4}
    z6 = make_ring("Z/6")
    idem = [x for x in range(6) if (x * x) % 6 == x]
    assert idem == [0, 1, 3, 4]
    assert set(z6.local.idempotents) == {3, 4}
    # factor at 3 has size 2 (3*Z/6 = {0,3}), factor at 4 has size 3
    sizes = {e: len({(e * x) % 6 for x in range(6)}) for e in (3, 4)}
    assert sizes == {3: 2, 4: 3}


def search_decomposition(ring):
    """The local decomposition by exhaustive search, independent of the
    moduli: the primitive idempotents e (no nonzero idempotent strictly
    below e), each factor eR walked additively as t*e, ordered stably by
    (smallest prime of |eR|, |eR|, spec) over increasing e.  Returns
    (spec, e, projection list, lift list) per factor."""
    mul, add, zero = ring.mul, ring.add, ring.zero
    idem = [x for x in range(ring.size) if mul(x, x) == x]
    prim = [e for e in idem if e != zero and not any(mul(f, e) == f for f in idem if f not in (zero, e))]
    total = zero
    for e in prim:
        total = add(total, e)
    assert total == ring.one
    assert all(mul(e, f) == zero for e, f in itertools.combinations(prim, 2))
    entries = []
    for e in prim:
        elems = {mul(e, x) for x in range(ring.size)}
        s = len(elems)
        lift = [zero]
        for _ in range(s - 1):
            lift.append(add(lift[-1], e))
        assert add(lift[-1], e) == zero and set(lift) == elems
        # eR is Z/s as a ring: (t*e)(u*e) = (t*u mod s)*e
        pairs = itertools.product(range(s), repeat=2) if s <= 96 else ((t, (t * 7 + 3) % s) for t in range(s))
        assert all(mul(lift[t], lift[u]) == lift[t * u % s] for t, u in pairs)
        log = {v: t for t, v in enumerate(lift)}
        entries.append(("Z/%d" % s, e, [log[mul(e, x)] for x in range(ring.size)], lift))
    entries.sort(key=lambda ent: (smallest_prime(len(ent[3])), len(ent[3]), ent[0]))
    return entries


@pytest.mark.parametrize("specs", [
    ["Z/%d" % n for n in range(2, 400)],
    ["Z/2 x Z/2", "Z/2 x Z/2 x Z/2", "Z/4 x Z/2 x Z/2", "Z/9 x Z/9", "Z/12 x Z/18", "Z/60 x Z/6"],
], ids=["cyclic", "equal_size_factors"])
def test_local_decomposition_matches_idempotent_search(specs):
    # the factors read off the moduli agree with the search in order (ties
    # included), idempotents, projections and lifts
    for spec in specs:
        dec = make_ring(spec).local
        want = search_decomposition(make_ring(spec))
        assert [f.spec for f in dec.factors] == [ent[0] for ent in want], spec
        assert list(dec.idempotents) == [ent[1] for ent in want], spec
        assert [list(p) for p in dec._proj] == [ent[2] for ent in want], spec
        assert [list(l) for l in dec._lift_elem] == [ent[3] for ent in want], spec


def test_local_decomposition_checks_its_roundtrip():
    # a residue table that disagrees with the ring's arithmetic makes lift
    # after projection miss an element
    z6 = FiniteRing((6,))
    z6.residues = ((0, 1, 2, 3, 5, 4),)
    with pytest.raises(InvariantViolation):
        z6.local


def test_local_projection_roundtrip():
    for spec in ["Z/6", "Z/12", "Z/2 x Z/3", "Z/60", "Z/36"]:
        ring = make_ring(spec)
        dec = ring.local
        for x in range(ring.size):
            comps = dec.project(x)
            assert dec.lift(comps) == x
        # projections are ring maps
        for a in range(ring.size):
            for b in range(ring.size):
                pa, pb = dec.project(a), dec.project(b)
                psum = dec.project(ring.add(a, b))
                pprod = dec.project(ring.mul(a, b))
                for i, f in enumerate(dec.factors):
                    assert psum[i] == f.add(pa[i], pb[i])
                    assert pprod[i] == f.mul(pa[i], pb[i])


def test_local_factors_are_local():
    # in a local ring the non-units form an ideal
    for spec in ["Z/6", "Z/12", "Z/60"]:
        for f in make_ring(spec).local.factors:
            non = set(f.nonunits())
            for a in non:
                for b in non:
                    assert f.add(a, b) in non
                for r in range(f.size):
                    assert f.mul(r, a) in non


def test_ring_equality_and_identity():
    assert make_ring("Z/6") == make_ring("Z/6")
    assert make_ring("Z/6") != make_ring("Z/2 x Z/3")
    assert isinstance(make_ring("Z/6"), FiniteRing)
