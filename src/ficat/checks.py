"""Numbered verification checks aggregating the library's headline claims.

Ten checks cover the Z/16 composition regression, the counting identity,
unique factorization with a brute-force uniqueness scan, the order laws
with their search oracles, realizing morphisms, the chain-level identities
of the shift complexes, resolution exactness, the finite-generation
criterion, the initial-term engine, and the category axiom suite.

Each check accepts a profile: "full" runs the complete advertised sizes,
"quick" shrinks the heaviest exhaustive sweeps while keeping the same
logic.  Checks return JSON-friendly records and report mismatches as
pass=False with a description instead of raising, so one broken claim
does not hide the rest; genuine usage errors and exhausted budgets
propagate to the caller.
"""

import random
from itertools import product as iproduct

from .catcore import FiCategory, check_axioms
from .errors import PreconditionError
from .matrices import Mat, column_adapted, factor_surjection, is_surjective, mul_cols_by, mul_rows_by, row_adapted
from .modhom import (
    VARIANTS,
    chain_homotopy_check,
    coef_field,
    complex_homology,
    exactness_report,
    generation_degree,
    init_gap_check,
    representable,
    shift_complex,
    submodule_closure,
)
from .rings import make_ring
from .si import make_osi_category, make_si_category, osi_factor, symplectic_check
from .vic import OvicMorphism, gl_order, gl_pairs, make_ovic_category, make_vic_category, ovic_count
from .wporder import order_of


def _record(num, name, profile, detail, bad=(), ok=True):
    """A check's record: it passes when nothing is in bad and ok holds; the
    detail names the first failure."""
    if bad:
        detail += "; first failure %s" % (bad[0],)
    return {
        "criterion": num,
        "name": name,
        "profile": profile,
        "pass": bool(ok) and not bad,
        "detail": detail,
    }


# ---------------------------------------------------------------------------
# 1. the Z/16 composition and comparator regression
# ---------------------------------------------------------------------------

def check_01(profile="full", seed=0):
    """Composing the two splittings of the same surjections over Z/16 gives
    the four recorded products, and the total order flips between them."""
    ring = make_ring("Z/16")
    cat = make_ovic_category(ring)

    def mor(f_rows, fp_rows):
        return OvicMorphism(Mat.from_rows(ring, f_rows), Mat.from_rows(ring, fp_rows))

    f1 = mor([[0], [1]], [[2, 1]])
    f2 = mor([[0], [1]], [[6, 1]])
    g1 = mor([[0, 0], [1, 0], [0, 1]], [[2, 1, 0], [0, 0, 1]])
    g2 = mor([[0, 0], [1, 0], [0, 1]], [[6, 1, 0], [0, 0, 1]])
    comps = [cat.compose(g1, f1), cat.compose(g1, f2), cat.compose(g2, f1), cat.compose(g2, f2)]
    got = [c.fp.to_rows() for c in comps]
    want = [[[4, 2, 1]], [[12, 6, 1]], [[12, 2, 1]], [[4, 6, 1]]]
    total_cmp = order_of(cat).total_cmp
    signs = (total_cmp(f1, f2), total_cmp(comps[0], comps[1]), total_cmp(comps[2], comps[3]))
    ok = got == want and signs == (-1, -1, 1)
    detail = "split rows %s, comparator signs %s" % (
        [r[0] for r in got],
        list(signs),
    )
    return _record(1, "z16-composition-regression", profile, detail, ok=ok)


# ---------------------------------------------------------------------------
# 2. the counting identity |Hom(X^r, X^n)| |Aut(X^(n-r))| = |Aut(X^n)|
# ---------------------------------------------------------------------------

def check_02(profile="full", seed=0):
    cats = [
        (FiCategory(), 3),
        (make_vic_category(make_ring("Z/2")), 3),
        (make_vic_category(make_ring("Z/3")), 3),
        (make_vic_category(make_ring("Z/4")), 3),
        (make_vic_category(make_ring("Z/6")), 3),
        (make_si_category(make_ring("Z/2")), 2),
    ]
    bad = []
    checked = 0
    for cat, nmax in cats:
        for n in range(nmax + 1):
            for r in range(n + 1):
                lhs = cat.count_hom(r, n) * cat.count_hom(n - r, n - r)
                rhs = cat.count_hom(n, n)
                checked += 1
                if lhs != rhs:
                    bad.append((cat.describe(), r, n, lhs, rhs))
    vic2, vic4, si2 = cats[1][0], cats[3][0], cats[5][0]
    anchors = (
        vic2.count_hom(2, 2),
        vic4.count_hom(1, 2),
        vic4.count_hom(1, 1),
        vic4.count_hom(2, 2),
        si2.count_hom(1, 2),
        si2.count_hom(1, 1),
        si2.count_hom(2, 2),
    )
    detail = "%d instances over 6 categories, anchors %s" % (checked, list(anchors))
    return _record(2, "counting-identity", profile, detail, bad, ok=anchors == (6, 48, 2, 96, 120, 6, 720))


# ---------------------------------------------------------------------------
# 3. unique factorization of surjections, with brute-force uniqueness
# ---------------------------------------------------------------------------

def check_03(profile="full", seed=0):
    rng = random.Random(seed)
    shapes = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3))
    bad = []
    surj_total = 0
    for spec in ("Z/4", "Z/6"):
        ring = make_ring(spec)
        gl_cache = {}
        for rows, cols in shapes:
            surjs = []
            for data in iproduct(range(ring.size), repeat=rows * cols):
                m = Mat(ring, rows, cols, data)
                if is_surjective(m):
                    surjs.append(m)
            if profile == "quick" and spec == "Z/6" and (rows, cols) == (2, 3):
                surjs = rng.sample(surjs, 200)
            if rows not in gl_cache:
                gl = list(gl_pairs(ring, rows))  # walked once per surjection
                gl_cache[rows] = gl, [ginv for _, ginv, _ in gl]
            gl, ginvs = gl_cache[rows]
            for m in surjs:
                surj_total += 1
                f1, f2 = factor_surjection(m)
                if f2.mul(f1) != m or column_adapted(f1) is None:
                    bad.append((spec, rows, cols, "recomposition", m.to_rows()))
                    continue
                hits = 0
                matched = False
                for (g, _, _), cand in zip(gl, mul_rows_by(ginvs, m)):
                    if column_adapted(cand) is not None:
                        hits += 1
                        if g == f2 and cand == f1:
                            matched = True
                if hits != 1 or not matched:
                    bad.append((spec, rows, cols, "uniqueness", m.to_rows(), hits))
    count_bad = []
    for spec in ("Z/4", "Z/6"):
        ring = make_ring(spec)
        vic = make_vic_category(ring)
        for d in (1, 2):
            for n in range(d, 4):
                lhs = vic.count_hom(d, n)
                rhs = ovic_count(ring, d, n) * gl_order(ring, d)
                if lhs != rhs:
                    count_bad.append((spec, d, n, lhs, rhs))
    r2 = make_ring("Z/2")
    si = make_si_category(r2)
    gl2 = gl_pairs(r2, 2)
    winvs = [winv for _, winv, _ in gl2]
    osi_total = 0
    for f in si.hom(1, 2):
        osi_total += 1
        f1, f2, _lam = osi_factor(f)
        if f1.f.mul(f2.f) != f.f or row_adapted(f1.f) is None:
            bad.append(("SI(Z/2)", "recomposition", f.f.to_rows()))
            continue
        hits = 0
        matched = False
        for (w, _, _), cand in zip(gl2, mul_cols_by(f.f, winvs)):
            if row_adapted(cand) is not None:
                hits += 1
                if w == f2.f and cand == f1.f:
                    matched = True
        if hits != 1 or not matched:
            bad.append(("SI(Z/2)", "uniqueness", f.f.to_rows(), hits))
    detail = "%d surjections factored uniquely, %d symplectic maps, counting splits %s" % (
        surj_total,
        osi_total,
        "ok" if not count_bad else count_bad[0],
    )
    return _record(3, "unique-factorization", profile, detail, bad, ok=not count_bad)


# ---------------------------------------------------------------------------
# 4. order laws on exhaustively enumerated morphism posets
# ---------------------------------------------------------------------------

def _posets(profile):
    """The three exhaustively enumerated posets of criteria 4 and 5:
    (category, nmax, hom(1, n) for 1 <= n <= nmax)."""
    top = 3 if profile == "full" else 2
    for make, spec, nmax in (
        (make_ovic_category, "Z/2", 3),
        (make_ovic_category, "Z/4", top),
        (make_osi_category, "Z/2", top),
    ):
        cat = make(make_ring(spec))
        yield cat, nmax, [m for n in range(1, nmax + 1) for m in cat.hom(1, n)]


def _order_laws(els, order):
    """Partial-order laws, oracle agreement, and the total extension on one
    exhaustively enumerated poset.  Returns (stats, problems)."""
    problems = []
    rel = {}
    for a in els:
        out = set()
        for b in els:
            x = order.preceq(a, b)
            if x != order.preceq_bfs(a, b):
                problems.append(("oracle-disagreement", repr(a), repr(b)))
            if x:
                out.add(b)
        rel[a] = out
        if a not in out:
            problems.append(("reflexivity", repr(a)))
    related = 0
    for a in els:
        for b in rel[a]:
            related += 1
            if a != b and a in rel[b]:
                problems.append(("antisymmetry", repr(a), repr(b)))
            for c in rel[b]:
                if c not in rel[a]:
                    problems.append(("transitivity", repr(a), repr(b), repr(c)))
    if len(set(order.total_key(a) for a in els)) != len(els):
        problems.append(("total-key-collision", len(els)))
    for a in els:
        for b in els:
            c = order.total_cmp(a, b)
            if c != -order.total_cmp(b, a) or (c == 0) != (a == b):
                problems.append(("comparator-laws", repr(a), repr(b)))
            if b in rel[a] and a != b and c != -1:
                problems.append(("extension", repr(a), repr(b)))
    return {"size": len(els), "related": related}, problems


def check_04(profile="full", seed=0):
    bad = []
    stats = []
    for cat, nmax, els in _posets(profile):
        st, problems = _order_laws(els, order_of(cat))
        stats.append("%s n<=%d: %d elements, %d related" % (cat.describe(), nmax, st["size"], st["related"]))
        bad.extend(problems)
    return _record(4, "order-laws", profile, "; ".join(stats), bad)


# ---------------------------------------------------------------------------
# 5. realizing morphisms: g = phi . f, monotone under the total order
# ---------------------------------------------------------------------------

def check_05(profile="full", seed=0):
    bad = []
    realized = 0
    monotone = 0
    gram_checked = 0
    for cat, _, els in _posets(profile):
        order = order_of(cat)
        label = cat.describe()
        by_dst = {}
        for m in els:
            by_dst.setdefault(m.dst, []).append(m)
        for a in els:
            for b in els:
                if not order.preceq(a, b):
                    continue
                phi = order.phi(a, b)
                realized += 1
                if cat.name == "OSI":
                    if not symplectic_check(phi.f, phi.src_form, phi.dst_form):
                        bad.append((label, "gram", repr(a), repr(b)))
                        continue
                    gram_checked += 1
                if cat.compose(phi, a) != b:
                    bad.append((label, "recomposition", repr(a), repr(b)))
                    continue
                if a == b:
                    continue
                for a1 in by_dst[a.dst]:
                    if order.total_cmp(a1, a) == -1:
                        monotone += 1
                        if order.total_cmp(cat.compose(phi, a1), b) != -1:
                            bad.append((label, "monotonicity", repr(a), repr(b), repr(a1)))
    detail = "%d realizations recomposed, %d monotonicity instances, %d symplectic gram checks" % (
        realized,
        monotone,
        gram_checked,
    )
    return _record(5, "realizing-morphisms", profile, detail, bad)


# ---------------------------------------------------------------------------
# 6. chain-level identities: d.d = 0, dG + Gd = I, induced maps vanish
# ---------------------------------------------------------------------------

def check_06(profile="full", seed=0):
    r2 = make_ring("Z/2")
    if profile == "full":
        configs = [
            (FiCategory(), "Q", 4),
            (make_vic_category(r2), "F2", 3),
            (make_si_category(r2), "F2", 2),
        ]
    else:
        configs = [
            (FiCategory(), "Q", 3),
            (make_vic_category(r2), "F2", 2),
            (make_si_category(r2), "F2", 2),
        ]
    bad = []
    complexes = 0
    homotopies = 0
    for cat, fieldspec, nmax in configs:
        field = coef_field(fieldspec)
        for d in (0, 1):
            module = representable(cat, d, nmax, field)
            for variant in VARIANTS:
                shift_complex(module, nmax, variant=variant)
                complexes += 1
            ranks = range(nmax) if profile == "full" else (nmax - 1,)
            for v in ranks:
                rep = chain_homotopy_check(module, v)
                homotopies += 1
                if not rep["homotopy_ok"]:
                    bad.append((cat.describe(), d, v, "homotopy"))
                if not rep["induced_zero_ok"]:
                    bad.append((cat.describe(), d, v, "induced-zero"))
    detail = "%d complexes built with d.d = 0, %d stabilization homotopies with vanishing induced maps" % (
        complexes,
        homotopies,
    )
    return _record(6, "chain-identities", profile, detail, bad)


# ---------------------------------------------------------------------------
# 7. resolution exactness and the injective-words cross-check
# ---------------------------------------------------------------------------

def check_07(profile="full", seed=0):
    derangements = [1, 0, 1, 2, 9, 44]
    nmax = 5 if profile == "full" else 4
    window = 3
    p0 = representable(FiCategory(), 0, nmax, coef_field("Q"))
    bad = []
    triple = shift_complex(p0, window + 1, variant="triple")
    for n in range(1, nmax + 1):
        h = complex_homology(triple, n, window)
        if any(h["H%d" % i] != 0 for i in range(window + 1)):
            bad.append(("triple", n, h))
    top = nmax - 1
    plain = shift_complex(p0, nmax, variant="plain")
    for n in range(top + 1):
        h = complex_homology(plain, n, top)
        want = {"H%d" % i: (derangements[n] if i == n else 0) for i in range(top + 1)}
        if h != want:
            bad.append(("plain", n, h))
    rep = exactness_report(plain, window)
    # the window homology at rank n is concentrated in degree n, so the
    # vanishing pattern is exactly the derangement pattern cut at the window
    zero_at = [derangements[n] == 0 or n > window for n in range(nmax + 1)]
    expected_threshold = next(
        t for t in range(nmax + 1) if all(zero_at[t:])
    )
    if rep["threshold"] != expected_threshold:
        bad.append(("threshold", rep["threshold"], expected_threshold))
    expected_anomalies = [
        n for n in range(nmax + 1) if not zero_at[n] and any(zero_at[:n])
    ]
    if rep["anomalies"] != expected_anomalies:
        bad.append(("anomalies", rep["anomalies"], expected_anomalies))
    detail = (
        "triple variant exact through degree %d at ranks 1..%d; "
        "plain homology matches derangements %s at ranks 0..%d; threshold %d"
        % (window, nmax, derangements[: top + 1], top, rep["threshold"])
    )
    return _record(7, "resolution-exactness", profile, detail, bad)


# ---------------------------------------------------------------------------
# 8. finite generation: d_1 onto exactly from rank d+1 on
# ---------------------------------------------------------------------------

def check_08(profile="full", seed=0):
    nmax = 4 if profile == "full" else 3
    bad = []
    stables = []
    for cat, fieldspec in ((FiCategory(), "Q"), (make_vic_category(make_ring("Z/2")), "F2")):
        for d in (0, 1):
            module = representable(cat, d, nmax, coef_field(fieldspec))
            rep = generation_degree(module)
            for n in range(nmax + 1):
                want = n >= d + 1 or module.dims[n] == 0
                if rep["per_rank"][n] != want:
                    bad.append((cat.describe(), d, n, rep["per_rank"][n], want))
            if rep["stable_from"] != d + 1:
                bad.append((cat.describe(), d, "stable_from", rep["stable_from"]))
            stables.append("%s P%d: %d" % (cat.describe(), d, rep["stable_from"]))
    detail = "surjectivity starts at d+1 within truncation %d (%s)" % (nmax, "; ".join(stables))
    return _record(8, "finite-generation", profile, detail, bad)


# ---------------------------------------------------------------------------
# 9. initial-term engine on random nested submodule pairs
# ---------------------------------------------------------------------------

def _random_span_vector(rng, rows, width):
    vec = [0] * width
    for row in rows:
        if rng.randint(0, 1):
            vec = [(x + y) % 2 for x, y in zip(vec, row)]
    return tuple(vec)


def check_09(profile="full", seed=0):
    rng = random.Random(seed)
    samples = 200 if profile == "full" else 40
    module = representable(make_ovic_category(make_ring("Z/2")), 1, 3, coef_field("F2"))
    bad = []
    full = submodule_closure(module, [(1, (1,))])
    e0 = tuple(1 if i == 0 else 0 for i in range(module.dims[2]))
    part = submodule_closure(module, [(2, e0)])
    rep = init_gap_check(part, full)
    strict = 0
    if rep["modules_equal"] or rep["inits_equal"]:
        bad.append(("constructed-strict-pair", rep["inits_equal"], rep["modules_equal"]))
    else:
        strict += 1
    equal = 0
    for t in range(samples):
        gens_m = []
        for _ in range(rng.randint(1, 3)):
            rk = rng.randint(1, 3)
            gens_m.append((rk, tuple(rng.randint(0, 1) for _ in range(module.dims[rk]))))
        msub = submodule_closure(module, gens_m)
        gens_n = []
        for rk in range(module.max_rank + 1):
            rows, _ = msub.spans[rk]
            for _ in range(rng.randint(0, 2)):
                if rows:
                    gens_n.append((rk, _random_span_vector(rng, rows, module.dims[rk])))
        nsub = submodule_closure(module, gens_n)
        # raises InvariantViolation if equal inits ever hide unequal spans
        rep = init_gap_check(nsub, msub)
        if rep["modules_equal"]:
            equal += 1
            if not rep["inits_equal"]:
                bad.append(("equal-modules-distinct-inits", t))
        else:
            strict += 1
            if rep["inits_equal"]:
                bad.append(("equal-inits-distinct-modules", t))
    detail = "%d nested pairs checked: %d equal, %d strict with strictly smaller init" % (
        samples + 1,
        equal,
        strict,
    )
    return _record(9, "initial-term-engine", profile, detail, bad, ok=strict >= 1)


# ---------------------------------------------------------------------------
# 10. the category axiom suite
# ---------------------------------------------------------------------------

def check_10(profile="full", seed=0):
    r2 = make_ring("Z/2")
    r4 = make_ring("Z/4")
    if profile == "full":
        ranks = (4, 3, 3, 2)
    else:
        ranks = (3, 2, 2, 1)
    jobs = list(
        zip(
            (FiCategory(), make_vic_category(r2), make_vic_category(r4, units=(1, 3)), make_si_category(r2)),
            ranks,
        )
    )
    bad = []
    names = []
    for cat, rank in jobs:
        rep = check_axioms(cat, rank, seed=seed)
        names.append("%s rank<=%d" % (cat.describe(), rank))
        if not rep["ok"]:
            failing = sorted(k for k, v in rep["checks"].items() if v["status"] != "pass")
            bad.append((cat.describe(), failing))
    return _record(10, "axiom-suite", profile, "axioms pass for %s" % "; ".join(names), bad)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

ALL_CHECKS = (
    check_01,
    check_02,
    check_03,
    check_04,
    check_05,
    check_06,
    check_07,
    check_08,
    check_09,
    check_10,
)

PROFILES = ("quick", "full")


def run_profile(profile="quick", seed=0):
    """Run every check in order; returns the list of records."""
    if profile not in PROFILES:
        raise PreconditionError("unknown checks profile: %r (expected quick or full)" % (profile,))
    return [fn(profile=profile, seed=seed) for fn in ALL_CHECKS]
