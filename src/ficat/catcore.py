"""Category core: enumerable skeletal categories of free objects.

Objects are ranks 0, 1, 2, ...; a category instance enumerates hom sets,
composes morphisms, and (when it carries complements) provides the monoidal
sum, canonical inclusions, block permutations, complement extraction and the
related coherence data.  The axiom checker lives here and is shared by the
FI, VIC and SI instances.

Composition convention throughout: compose(g, f) means "g after f", and
precompose(gs, f) is [compose(g, f) for g in gs], which VIC, OVIC and SI batch.
Callers that read only the keys of the composites ask precompose_keys(gs, f)
for [key(compose(g, f)) for g in gs], which FI, VIC and SI build from the
factors' data with no morphism or matrix object per composite; OVIC and OSI
build each composite, so that every one is checked for adaptedness.
precompose_each yields keys too.

The axiom checker decides exhaustive associativity on action tables: for
ranks l <= m <= n, the table act(l, m, n) holds, for each f in hom(l, m),
the positions in hom(l, n) of g . f for g over hom(m, n), each built by one
precompose_keys per f.  Both sides of (g f) e = g (f e) are then lookups, and
a composite is made once per table entry rather than three times per triple.
"""

import math
import random
from itertools import permutations, product as iproduct

from .errors import BudgetExceeded, InvariantViolation, PreconditionError, charge, nonneg_int


_HELD = 1024  # composites that the axiom checker and precompose_each hold at once
MONO_CAP = 50_000_000  # compositions the mono check may make for one hom set before BudgetExceeded


def _slices(xs, size):
    """xs cut into consecutive slices of at most size items."""
    return [xs[at:at + size] for at in range(0, len(xs), size)]


def check_composable(gs, f):
    """Raise PreconditionError unless every g in gs can follow f."""
    for g in gs:
        if f.dst != g.src:
            raise PreconditionError("composition rank mismatch: %d vs %d" % (f.dst, g.src))


class Category:
    """Base class: hom enumeration with caching and budgets, and the
    complemented structure that follows from a subclass's slot_inclusion."""

    name = "?"
    is_complemented = False
    is_symmetric = False

    def __init__(self):
        self._hom_cache = {}
        self._position_cache = {}

    def describe(self):
        return self.name

    def hom(self, m, n, budget=None):
        """The sorted tuple of all morphisms from rank m to rank n."""
        nonneg_int(m, "object rank")
        nonneg_int(n, "object rank")
        got = self._hom_cache.get((m, n))
        if got is None:
            count = self.count_hom(m, n)
            charge(count, budget, "hom(%d,%d) enumeration in %s" % (m, n, self.describe()))
            mors = list(self._enumerate_hom(m, n))
            keys = [self.key(f) for f in mors]
            order = sorted(range(len(mors)), key=keys.__getitem__)
            got = tuple(mors[i] for i in order)
            if len(got) != count:
                raise InvariantViolation(
                    "hom(%d,%d) in %s enumerated %d morphisms, counted %d"
                    % (m, n, self.describe(), len(got), count)
                )
            if any(keys[i] == keys[j] for i, j in zip(order, order[1:])):
                raise InvariantViolation("duplicate morphisms in hom enumeration")
            self._hom_cache[(m, n)] = got
        return got

    def count_hom(self, m, n):
        """|hom(m, n)|, once both ranks are checked to be non-negative integers."""
        return self._count_hom(nonneg_int(m, "object rank"), nonneg_int(n, "object rank"))

    def aut(self, n, budget=None):
        return self.hom(n, n, budget)

    def position(self, m, n, budget=None):
        """{key(f): index of f in hom(m, n)}, built on the first call and cached."""
        hom = self.hom(m, n, budget)  # checks both ranks before the cache is keyed on them
        if (m, n) not in self._position_cache:
            self._position_cache[(m, n)] = {self.key(f): i for i, f in enumerate(hom)}
        return self._position_cache[(m, n)]

    # subclasses: _count_hom, _enumerate_hom, compose, identity, key, validate

    def precompose(self, gs, f):
        """[compose(g, f) for g in gs]."""
        return [self.compose(g, f) for g in gs]

    def precompose_keys(self, gs, f):
        """[key(compose(g, f)) for g in gs]."""
        return [self.key(h) for h in self.precompose(gs, f)]

    def precompose_each(self, gs, fs):
        """For each g in gs the tuple of key(compose(g, f)) over fs, by
        precompose_keys on slices of gs."""
        for part in _slices(gs, max(1, _HELD // max(1, len(fs)))):
            yield from zip(*[self.precompose_keys(part, f) for f in fs]) if fs else [()] * len(part)

    def is_iso(self, mor):
        """In the skeletal categories here, endomorphisms are exactly the isos."""
        return mor.src == mor.dst

    # ----- complemented structure, from slot_inclusion -----

    def canonical(self, m, n):
        """The inclusion of rank m onto the first m slots of rank n."""
        if m > n:
            raise PreconditionError("no canonical inclusion %d -> %d" % (m, n))
        return self.slot_inclusion(tuple(range(m)), n)

    def canonical_last(self, m, n):
        """The inclusion of rank m onto the last m slots of rank n."""
        if m > n:
            raise PreconditionError("no canonical inclusion %d -> %d" % (m, n))
        return self.slot_inclusion(tuple(range(n - m, n)), n)

    def block_permutation(self, sizes, perm):
        """The automorphism placing block perm[t] of the given sizes t-th."""
        q = len(sizes)
        if sorted(perm) != list(range(q)):
            raise PreconditionError("bad block permutation %r" % (perm,))
        total = sum(sizes)
        src_off = [0] * q
        acc = 0
        for i, s in enumerate(sizes):
            src_off[i] = acc
            acc += s
        images = [0] * total
        acc = 0
        for t in range(q):
            i = perm[t]
            for j in range(sizes[i]):
                images[src_off[i] + j] = acc + j
            acc += sizes[i]
        return self.slot_inclusion(tuple(images), total)

    def flip(self, a, b):
        """The symmetry exchanging the summands of rank a and rank b."""
        return self.block_permutation((a, b), (1, 0))


# ---------------------------------------------------------------------------
# FI: finite sets with injections
# ---------------------------------------------------------------------------

class FiMorphism:
    """An injection [src] -> [dst], stored as the 0-based image tuple."""

    __slots__ = ("src", "dst", "images")

    def __init__(self, src, dst, images):
        self.src = src
        self.dst = dst
        self.images = tuple(images)

    def __eq__(self, other):
        return (
            isinstance(other, FiMorphism)
            and other.src == self.src
            and other.dst == self.dst
            and other.images == self.images
        )

    def __hash__(self):
        return hash(("FI", self.src, self.dst, self.images))

    def __repr__(self):
        return "FiMorphism(%d -> %d, %s)" % (self.src, self.dst, list(self.images))


class FiCategory(Category):
    """Finite sets [n] = {0..n-1} with injections."""

    name = "FI"
    is_complemented = True
    is_symmetric = True

    def _count_hom(self, m, n):
        if m > n:
            return 0
        return math.perm(n, m)

    def _enumerate_hom(self, m, n):
        return [FiMorphism(m, n, images) for images in permutations(range(n), m)]

    def identity(self, n):
        return FiMorphism(n, n, tuple(range(n)))

    def compose(self, g, f):
        check_composable((g,), f)
        return FiMorphism(f.src, g.dst, tuple(g.images[i] for i in f.images))

    def precompose_keys(self, gs, f):
        check_composable(gs, f)
        return [(f.src, g.dst, tuple([g.images[i] for i in f.images])) for g in gs]

    def key(self, mor):
        return (mor.src, mor.dst, mor.images)

    def validate(self, mor):
        if not isinstance(mor, FiMorphism):
            return False
        if len(mor.images) != mor.src:
            return False
        if any(not (0 <= i < mor.dst) for i in mor.images):
            return False
        return len(set(mor.images)) == mor.src

    # ----- complemented structure -----

    def monoidal_sum(self, f, g):
        images = f.images + tuple(i + f.dst for i in g.images)
        return FiMorphism(f.src + g.src, f.dst + g.dst, images)

    def slot_inclusion(self, slots, p):
        slots = tuple(slots)
        if any(not (0 <= s < p) for s in slots) or len(set(slots)) != len(slots):
            raise PreconditionError("bad slot list %r for rank %d" % (slots, p))
        return FiMorphism(len(slots), p, slots)

    def complement_of(self, f):
        used = set(f.images)
        rest = tuple(i for i in range(f.dst) if i not in used)
        return len(rest), FiMorphism(len(rest), f.dst, rest)

    def assemble(self, f, j):
        """The morphism X^{m+r} -> X^n restricting to f and j on the two summands.

        Returns None when images collide (no assembling morphism exists).
        """
        if f.dst != j.dst:
            raise PreconditionError("assemble requires a common target")
        if set(f.images) & set(j.images):
            return None
        return FiMorphism(f.src + j.src, f.dst, f.images + j.images)

    def subobject_equal(self, u, v):
        return u.src == v.src and u.dst == v.dst and set(u.images) == set(v.images)

    def factor_through(self, j2, j1):
        """The morphism c with j2 . c = j1; requires im(j1) inside im(j2)."""
        pos = {img: k for k, img in enumerate(j2.images)}
        try:
            images = tuple(pos[i] for i in j1.images)
        except KeyError:
            raise PreconditionError("factor_through: image is not contained")
        return FiMorphism(j1.src, j2.src, images)


# ---------------------------------------------------------------------------
# axiom checker
# ---------------------------------------------------------------------------

def _signatures(max_rank):
    sigs = []
    for n in range(max_rank + 1):
        for m in range(n + 1):
            for l in range(m + 1):
                for k in range(l + 1):
                    sigs.append((k, l, m, n))
    return sigs


def _action_tables(cat, budget):
    """act(l, m, n), built once per (l, m, n): for each f in hom(l, m), the
    positions in hom(l, n) of g . f for g over hom(m, n), or None when some
    composite is not in hom(l, n).  Positions come from cat.position(l, n);
    g runs over hom(m, n) a slice at a time."""
    tables = {}

    def act(l, m, n):
        if (l, m, n) not in tables:
            pos = cat.position(l, n, budget)
            parts = _slices(cat.hom(m, n, budget), _HELD)
            rows = [
                [pos.get(k) for gs in parts for k in cat.precompose_keys(gs, f)]
                for f in cat.hom(l, m, budget)
            ]
            tables[(l, m, n)] = None if any(None in row for row in rows) else rows
        return tables[(l, m, n)]

    return act


def _associativity(cat, max_rank, budget, rng, assoc_cap, assoc_samples):
    """The associativity record of check_axioms: (g f) e = g (f e) on every
    triple of each signature with at most assoc_cap triples, read off action
    tables, and on assoc_samples seeded draws (composed one at a time) beyond."""
    record = {
        "status": "pass",
        "signatures": 0,
        "exhaustive_signatures": 0,
        "sampled_signatures": 0,
        "checked": 0,
    }
    act = _action_tables(cat, budget)
    for (k, l, m, n) in _signatures(max_rank):
        hs_e = cat.hom(k, l, budget)
        hs_f = cat.hom(l, m, budget)
        hs_g = cat.hom(m, n, budget)
        total = len(hs_e) * len(hs_f) * len(hs_g)
        if total == 0:
            continue
        record["signatures"] += 1
        if total <= assoc_cap:
            record["exhaustive_signatures"] += 1
            fg, he, fe, gc = act(l, m, n), act(k, l, n), act(k, l, m), act(k, m, n)
            if None not in (fg, he, fe, gc):
                # positions of (g f_b) e_a against those of g (f_b e_a), over all g at once
                sides = (
                    ([he_a[p] for p in fg_b], gc[c]) for he_a, fe_a in zip(he, fe) for fg_b, c in zip(fg, fe_a)
                )
            else:
                # a composite outside its hom set: compare the composites themselves,
                # for a slice of g at once
                sides = (
                    (cat.precompose(cat.precompose(gs, f), e), cat.precompose(gs, cat.compose(f, e)))
                    for e in hs_e for f in hs_f for gs in _slices(hs_g, _HELD // 3)
                )
        else:
            record["sampled_signatures"] += 1
            draws = ((rng.choice(hs_e), rng.choice(hs_f), rng.choice(hs_g)) for _ in range(assoc_samples))
            sides = (([cat.compose(cat.compose(g, f), e)], [cat.compose(g, cat.compose(f, e))]) for e, f, g in draws)
        for lhs, rhs in sides:
            if lhs != rhs:
                record["checked"] += next(i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
                record["status"] = "fail"
                record.setdefault("failures", []).append("associativity fails at (%d,%d,%d,%d)" % (k, l, m, n))
                break
            record["checked"] += len(lhs)
    return record


def check_axioms(cat, max_rank, budget=None, seed=0, assoc_cap=200_000, assoc_samples=20_000):
    """Verify the category/complement axioms on all enumerated morphisms.

    Exhaustive everywhere except associativity (per-signature exhaustive up to
    assoc_cap triples, on action tables; seeded deterministic sample beyond,
    composed one triple at a time) and complement
    uniqueness (checked exhaustively at the canonical inclusion of each rank
    pair and transferred by the transitivity of the automorphism action on
    hom sets, which is itself verified exhaustively here).

    Returns a report dict with an overall "ok" flag; each sub-check carries
    its own status and counters.
    """
    nonneg_int(max_rank, "maximum rank")
    nonneg_int(assoc_cap, "associativity cap")
    nonneg_int(assoc_samples, "associativity sample count")
    checks = {}
    report = {"category": cat.describe(), "max_rank": max_rank, "checks": checks}

    def fail(name, detail):
        checks[name]["status"] = "fail"
        checks[name].setdefault("failures", []).append(detail)

    # --- identity / unit laws ---
    checks["identity"] = {"status": "pass", "checked": 0}
    for n in range(max_rank + 1):
        idn = cat.identity(n)
        for m in range(max_rank + 1):
            hs = cat.hom(m, n, budget)
            for f, (f_id,) in zip(hs, cat.precompose_each(hs, [cat.identity(m)])):
                if cat.compose(idn, f) != f or f_id != cat.key(f):
                    fail("identity", "unit law fails at hom(%d,%d)" % (m, n))
                checks["identity"]["checked"] += 1

    # --- associativity (budgeted) ---
    checks["associativity"] = _associativity(cat, max_rank, budget, random.Random(seed), assoc_cap, assoc_samples)

    # --- initial object ---
    checks["initial"] = {"status": "pass"}
    for n in range(max_rank + 1):
        if len(cat.hom(0, n, budget)) != 1:
            fail("initial", "rank 0 is not initial at target %d" % n)

    # --- every morphism is monic ---
    checks["mono"] = {"status": "pass", "checked": 0, "iso_skipped": 0}
    for n in range(max_rank + 1):
        for m in range(n + 1):
            inner = []
            for l in range(m + 1):
                inner.extend(cat.hom(l, m, budget))
            outer_all = cat.hom(m, n, budget)
            outer = [g for g in outer_all if not cat.is_iso(g)]
            checks["mono"]["iso_skipped"] += len(outer_all) - len(outer)
            work = len(outer) * len(inner)
            if work > MONO_CAP:
                raise BudgetExceeded(
                    "mono check at hom(%d,%d) needs %d compositions" % (m, n, work),
                    required=work,
                )
            for gs in _slices(outer, max(1, 16 * _HELD // len(inner))):  # keys are smaller
                seen = [set() for _ in gs]
                for f in inner:
                    for keys, k in zip(seen, cat.precompose_keys(gs, f)):
                        keys.add(k)
                for keys in seen:
                    if len(keys) != len(inner):
                        fail("mono", "morphism in hom(%d,%d) is not monic" % (m, n))
                    checks["mono"]["checked"] += len(inner)

    if cat.is_complemented:
        # --- injectivity of Hom(V + V', W) -> Hom(V, W) x Hom(V', W) ---
        checks["sum_injective"] = {"status": "pass", "checked": 0}
        for n in range(max_rank + 1):
            for m in range(n + 1):
                hs = cat.hom(m, n, budget)
                for a in range(m + 1):
                    b = m - a
                    can_a = cat.canonical(a, m)
                    can_b = cat.canonical_last(b, m)
                    seen = set(cat.precompose_each(hs, [can_a, can_b]))
                    if len(seen) != len(hs):
                        fail("sum_injective", "restriction map not injective at (%d=%d+%d,%d)" % (m, a, b, n))
                    checks["sum_injective"]["checked"] += len(hs)

        # --- transitivity of Aut(W) on Hom(V, W) ---
        checks["transitivity"] = {"status": "pass", "pairs": 0}
        for n in range(max_rank + 1):
            auts = cat.aut(n, budget)
            for m in range(n):
                can = cat.canonical(m, n)
                orbit = {k for k, in cat.precompose_each(auts, [can])}
                if orbit != cat.position(m, n, budget).keys():
                    fail("transitivity", "automorphisms not transitive on hom(%d,%d)" % (m, n))
                checks["transitivity"]["pairs"] += 1

        # --- complements: existence everywhere ---
        checks["complement_exists"] = {"status": "pass", "checked": 0}
        for n in range(max_rank + 1):
            for m in range(n + 1):
                r_expect = n - m
                can_m = cat.canonical(m, n)
                can_r_last = cat.canonical_last(r_expect, n)
                for f in cat.hom(m, n, budget):
                    r, j = cat.complement_of(f)
                    ok = r == r_expect and cat.validate(j) and j.src == r and j.dst == n
                    psi = cat.assemble(f, j) if ok else None
                    ok = ok and psi is not None and cat.validate(psi) and psi.src == n and psi.dst == n
                    ok = ok and cat.compose(psi, can_m) == f
                    ok = ok and cat.compose(psi, can_r_last) == j
                    if not ok:
                        fail("complement_exists", "complement fails for hom(%d,%d) morphism %r" % (m, n, f))
                        break
                    checks["complement_exists"]["checked"] += 1

        # --- complements: uniqueness at the canonical inclusion ---
        checks["complement_unique"] = {"status": "pass", "pairs": 0}
        for n in range(max_rank + 1):
            for m in range(n + 1):
                r = n - m
                f0 = cat.canonical(m, n)
                can_r_last = cat.canonical_last(r, n)
                _, j0 = cat.complement_of(f0)
                classes = 0
                seen_j0_class = False
                for j in cat.hom(r, n, budget):
                    psi = cat.assemble(f0, j)
                    if psi is None or not cat.validate(psi):
                        continue
                    if cat.compose(psi, f0) != f0 or cat.compose(psi, can_r_last) != j:
                        continue
                    if cat.subobject_equal(j, j0):
                        seen_j0_class = True
                    else:
                        classes += 1
                if not seen_j0_class or classes:
                    fail(
                        "complement_unique",
                        "complement of canonical(%d,%d) not unique (%d extra classes)" % (m, n, classes),
                    )
                checks["complement_unique"]["pairs"] += 1

        # --- monoidal unit laws and functoriality (sampled) ---
        checks["monoidal"] = {"status": "pass", "checked": 0}
        for a in range(max_rank + 1):
            for b in range(max_rank + 1 - a):
                if cat.monoidal_sum(cat.identity(a), cat.identity(b)) != cat.identity(a + b):
                    fail("monoidal", "identity sum fails at (%d,%d)" % (a, b))
        rng2 = random.Random(seed + 1)
        for a in range(max_rank + 1):
            for b in range(max_rank + 1 - a):
                for a0 in range(a + 1):
                    for b0 in range(b + 1):
                        for a1 in range(a0 + 1):
                            for b1 in range(b0 + 1):
                                hf = cat.hom(a0, a, budget)
                                hg = cat.hom(b0, b, budget)
                                hf2 = cat.hom(a1, a0, budget)
                                hg2 = cat.hom(b1, b0, budget)
                                total = len(hf) * len(hg) * len(hf2) * len(hg2)
                                if total == 0:
                                    continue
                                if total <= 200:
                                    quads = list(iproduct(hf, hg, hf2, hg2))
                                else:
                                    quads = [
                                        (rng2.choice(hf), rng2.choice(hg), rng2.choice(hf2), rng2.choice(hg2))
                                        for _ in range(200)
                                    ]
                                for f, g, f2, g2 in quads:
                                    lhs = cat.compose(
                                        cat.monoidal_sum(f, g), cat.monoidal_sum(f2, g2)
                                    )
                                    rhs = cat.monoidal_sum(cat.compose(f, f2), cat.compose(g, g2))
                                    if lhs != rhs:
                                        fail("monoidal", "sum functoriality fails at (%d,%d)" % (a, b))
                                        break
                                    checks["monoidal"]["checked"] += 1

    if cat.is_symmetric:
        checks["symmetry"] = {"status": "pass", "checked": 0}
        rng3 = random.Random(seed + 2)
        for a in range(max_rank + 1):
            for b in range(max_rank + 1 - a):
                sig = cat.flip(a, b)
                sig_back = cat.flip(b, a)
                if cat.compose(sig_back, sig) != cat.identity(a + b):
                    fail("symmetry", "flip is not an involution at (%d,%d)" % (a, b))
                if cat.compose(sig, cat.canonical(a, a + b)) != cat.canonical_last(a, a + b):
                    fail("symmetry", "flip does not exchange the canonical inclusions at (%d,%d)" % (a, b))
                # naturality on a bounded sample
                for a0 in range(a + 1):
                    for b0 in range(b + 1):
                        hf = cat.hom(a0, a, budget)
                        hg = cat.hom(b0, b, budget)
                        if not hf or not hg:
                            continue
                        pairs = len(hf) * len(hg)
                        if pairs <= 200:
                            chosen = [(f, g) for f in hf for g in hg]
                        else:
                            chosen = [(rng3.choice(hf), rng3.choice(hg)) for _ in range(200)]
                        sig0 = cat.flip(a0, b0)
                        for f, g in chosen:
                            lhs = cat.compose(sig, cat.monoidal_sum(f, g))
                            rhs = cat.compose(cat.monoidal_sum(g, f), sig0)
                            if lhs != rhs:
                                fail("symmetry", "braiding not natural at (%d,%d)<-(%d,%d)" % (a, b, a0, b0))
                            checks["symmetry"]["checked"] += 1

    report["ok"] = all(c["status"] == "pass" for c in checks.values())
    return report
