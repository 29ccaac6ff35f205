"""The two workloads: what each round computes and how its outputs are checked.

`homology` is shift-complex homology.  `algebra` is two parts run one after
the other in the same round: `axioms` (hom enumeration and the axiom suite)
and `normal_forms` (finite-ring normal forms and the insertion orders).

A round of a workload runs in a fresh worker process: `setup` imports ficat
and builds the rings and categories, `solve` makes the workload's calls into
ficat and returns their outputs, and `verify` checks those outputs against
the reference computations in reference.py.  Only `solve` is timed.  Every
call into ficat made by `solve` is one attempted operation.

Each workload also runs the README commands that exercise its own layers as
fresh `ficat` processes, for the cold command latency.

Two known faults are kept as operations that fail every time, on inputs
that do not depend on the seed (see FAULTS).  Any other exception, or any
check that does not hold, makes the run incorrect.
"""

import json
import random
from fractions import Fraction
from itertools import product

import reference as ref

# The large prime that stands in for Q: a rank over Q equals the rank
# modulo P unless P divides one of the matrix's nonzero minors.  For the
# {-1, 0, 1} differentials here the ranks modulo P agree with ficat's exact
# rational ranks on the code this benchmark was written against.
BIG_PRIME = 2_147_483_647

# Associativity sizes passed to check_axioms in the axioms workload: every
# triple of a signature with at most ASSOC_CAP triples, ASSOC_SAMPLES seeded
# samples beyond (the library defaults are 200000 and 20000).
ASSOC_CAP = 10_000
ASSOC_SAMPLES = 1_000

# Known faults, by the exception class name and a piece of its message.
FAULTS = {
    # det() refuses sizes above matrices.MAX_DET_SIZE = 8, so is_surjective
    # and factor_surjection fail on any matrix with 9 or more rows.
    "det-cap": ("PreconditionError", "determinant limited to size <= 8"),
    # _orbit_tables charges |basis| * |group| against the default budget;
    # FI P0 double/triple at truncation 6 needs 720 * 720 = 518400.
    "orbit-budget": ("BudgetExceeded", "shift quotient orbits needs 518400 elements"),
}


class Round:
    """Operation counts, check failures and exact work counts of one round."""

    def __init__(self, tracer, seed):
        self.span = tracer.span
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.counts = {}

    def call(self, fn, *args, fault=None, **kwargs):
        """One operation; a known fault is counted as failed and gives None."""
        self.attempted += 1
        if fault is None:
            return fn(*args, **kwargs)
        kind, text = FAULTS[fault]
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # only the named fault is tolerated
            if type(exc).__name__ == kind and text in str(exc):
                self.failed += 1
                return None
            raise

    def expect(self, ok, what):
        if not ok:
            self.problems.append(what)


def _mat_rows(m):
    return [list(m.data[i * m.cols:(i + 1) * m.cols]) for i in range(m.rows)]


def _field_prime(field_name):
    return {"Q": BIG_PRIME, "F2": 2, "F3": 3}[field_name]


def _to_mod(x, p):
    if isinstance(x, Fraction):
        return x.numerator * pow(x.denominator, -1, p) % p
    return int(x) % p


# ---------------------------------------------------------------------------
# homology: shift-complex homology over Q, F3 and F2
# ---------------------------------------------------------------------------

# (label, category, truncation, chain degree bound q, field, variant,
#  highest rank whose homology is taken, fault)
HOMOLOGY_COMPLEXES = (
    ("FI", "FI", 6, 6, "F2", "plain", 6, None),
    ("FI", "FI", 6, 6, "F3", "plain", 5, None),
    ("FI", "FI", 6, 6, "Q", "plain", 5, None),
    ("FI", "FI", 6, 6, "F2", "double", 6, "orbit-budget"),
    ("FI", "FI", 6, 6, "F2", "triple", 6, "orbit-budget"),
    ("FI", "FI", 5, 5, "Q", "double", 5, None),
    ("FI", "FI", 5, 5, "Q", "triple", 5, None),
    ("VIC(Z/2)", "VIC", 4, 3, "F2", "plain", 4, None),
    ("SI(Z/2)", "SI", 2, 2, "F2", "plain", 2, None),
    ("SI(Z/2)", "SI", 2, 2, "F3", "plain", 2, None),
    ("SI(Z/2)", "SI", 2, 2, "Q", "triple", 2, None),
    ("SI(Z/2)", "SI", 2, 2, "Q", "prime", 2, None),
)

# hom sets enumerated up front, per category: (module of the category, ranks)
HOMOLOGY_HOMS = (("FI", "catcore", 6, 6), ("VIC", "vic", 4, 3), ("SI", "si", 2, 2))


def solve_homology(rnd, ns):
    from ficat import chain_homotopy_check, complex_homology, representable, shift_complex

    cats, fields = ns["cats"], ns["fields"]
    for key, layer, top, src_top in HOMOLOGY_HOMS:
        with rnd.span(layer + ".hom"):
            for n in range(top + 1):
                for m in range(min(n, src_top) + 1):
                    rnd.call(cats[key].hom, m, n)
    modules = {}
    out = []
    for label, key, trunc, q, fname, variant, top, fault in HOMOLOGY_COMPLEXES:
        mkey = (key, trunc, fname)
        if mkey not in modules:
            with rnd.span("modhom.representable"):
                modules[mkey] = rnd.call(representable, cats[key], 0, trunc, fields[fname])
        with rnd.span("modhom.shift_complex"):
            cplx = rnd.call(shift_complex, modules[mkey], q, variant, fault=fault)
        homology = {}
        if cplx is not None:
            with rnd.span("modhom.rank_" + fname.lower()):
                for n in range(top + 1):
                    homology[n] = rnd.call(complex_homology, cplx, n, min(n, q - 1))
        out.append((label, key, trunc, q, fname, variant, top, cplx, homology))
    with rnd.span("modhom.representable"):
        module = rnd.call(representable, cats["FI"], 0, 5, fields["F3"])
    with rnd.span("modhom.homotopy"):
        homotopy = rnd.call(chain_homotopy_check, module, 4)
    return {"complexes": out, "homotopy": homotopy}


def _variant_group_order(counts, variant, p):
    import math

    order = 1
    if variant in ("double", "triple"):
        order *= math.factorial(p)
    if variant in ("prime", "triple"):
        order *= counts.aut(1) ** p
    return order


def _fi_plain_column(index_lo, u):
    """The differential of the FI injective-words complex on the basis word
    u: sum over i of (-1)^(i+1) [u with its i-th letter deleted]."""
    col = {}
    for i in range(len(u)):
        r = index_lo[u[:i] + u[i + 1:]]
        col[r] = col.get(r, 0) + (1 if i % 2 == 0 else -1)
    return {r: c for r, c in col.items() if c}


def verify_homology(rnd, ns, out):
    counts_of = {"FI": ref.HomCounts("FI"), "VIC": ref.HomCounts("VIC", 2), "SI": ref.HomCounts("SI", 2)}
    rng = random.Random(rnd.seed)
    nnz = 0
    for label, key, trunc, q, fname, variant, top, cplx, homology in out["complexes"]:
        where = "%s P0 %s over %s (N=%d)" % (label, variant, fname, trunc)
        if cplx is None:
            continue
        counts = counts_of[key]
        p_field = _field_prime(fname)
        for n in range(trunc + 1):
            for p in range(q + 1):
                want = counts.hom(p, n) // _variant_group_order(counts, variant, p)
                rnd.expect(cplx.dim(p, n) == want,
                           "%s: dim of chain degree %d at rank %d is %d, closed form %d"
                           % (where, p, n, cplx.dim(p, n), want))
        for n in range(top + 1):
            deg = min(n, q - 1)
            ranks = [0]
            for i in range(1, deg + 2):
                d = cplx.diff(i, n)
                nnz += sum(len(col) for col in d.columns)
                vectors = [{r: _to_mod(c, p_field) for r, c in col} for col in d.columns]
                ranks.append(ref.sparse_rank(vectors, p_field))
            want = {"H%d" % i: cplx.dim(i, n) - ranks[i] - ranks[i + 1] for i in range(deg + 1)}
            rnd.expect(homology[n] == want, "%s rank %d: homology %r, elimination gives %r"
                       % (where, n, homology[n], want))
            if key == "FI":
                if variant == "plain":
                    closed = {"H%d" % i: ref.derangements(n) if i == n else 0 for i in range(deg + 1)}
                else:
                    closed = {"H%d" % i: 1 if (n, i) == (0, 0) else 0 for i in range(deg + 1)}
                rnd.expect(homology[n] == closed, "%s rank %d: homology %r, closed form %r"
                           % (where, n, homology[n], closed))
        if key == "FI" and variant == "plain":
            # seeded spot check of the differential's columns
            for n in range(1, trunc + 1):
                for p in range(1, min(n, q) + 1):
                    hi = [u.images for u in cplx.spaces[(p, n)]]
                    lo = {u.images: i for i, u in enumerate(cplx.spaces[(p - 1, n)])}
                    d = cplx.diff(p, n)
                    for j in rng.sample(range(len(hi)), min(20, len(hi))):
                        want = _fi_plain_column(lo, hi[j])
                        got = {r: _to_mod(c, p_field) for r, c in d.column(j)}
                        want = {r: c % p_field for r, c in want.items() if c % p_field}
                        rnd.expect(got == want, "%s: column %d of d_%d at rank %d is wrong"
                                   % (where, j, p, n))
    rnd.counts["modhom.diff_nnz"] = nnz
    h = out["homotopy"]
    rnd.expect(h["homotopy_ok"] and h["induced_zero_ok"] and h["q"] == 5,
               "chain homotopy check on FI P0 at rank 4 failed: %r" % (h,))


# ---------------------------------------------------------------------------
# axioms: hom enumeration, then the axiom suite
# ---------------------------------------------------------------------------

# (label, module of the category, max rank, closed-form counts, complemented, symmetric)
AXIOM_CATEGORIES = (
    ("FI", "catcore", 4, ("FI", None, None), True, True),
    ("VIC(Z/4, U={1,3})", "vic", 2, ("VIC", 4, 2), True, True),
    ("VIC(Z/6)", "vic", 2, ("VIC", 6, None), True, True),
    ("SI(Z/2)", "si", 2, ("SI", 2, None), True, True),
    ("OVIC(Z/4)", "vic", 3, ("OVIC", 4, None), False, False),
)


def solve_axioms(rnd, ns):
    from ficat import check_axioms

    out = []
    for cat, (label, layer, top, _, _, _) in zip(ns["cats"], AXIOM_CATEGORIES):
        with rnd.span(layer + ".hom"):
            sizes = {(m, n): len(rnd.call(cat.hom, m, n)) for n in range(top + 1) for m in range(n + 1)}
        with rnd.span("catcore.check_axioms"):
            report = rnd.call(check_axioms, cat, top, seed=rnd.seed,
                              assoc_cap=ASSOC_CAP, assoc_samples=ASSOC_SAMPLES)
        out.append((sizes, report))
    return out


def _report_counters(report):
    return {
        "%s.%s" % (name, key): value
        for name, check in report["checks"].items()
        for key, value in check.items()
        if key != "status"
    }


def verify_axioms(rnd, ns, out):
    checked = 0
    for (sizes, report), (label, _, top, spec, compl, sym) in zip(out, AXIOM_CATEGORIES):
        counts = ref.HomCounts(*spec)
        for (m, n), size in sizes.items():
            rnd.expect(size == counts.hom(m, n), "%s: |hom(%d,%d)| = %d, closed form %d"
                       % (label, m, n, size, counts.hom(m, n)))
        rnd.expect(report["ok"], "%s: axiom report is not ok" % label)
        got = _report_counters(report)
        want = ref.axiom_counters(counts.hom, top, compl, sym, ASSOC_CAP, ASSOC_SAMPLES)
        rnd.expect(got == want, "%s: axiom counters %r, closed form %r" % (label, got, want))
        checked += sum(got.values())
    rnd.counts["catcore.morphisms_checked"] = checked


# ---------------------------------------------------------------------------
# normal_forms: finite-ring linear algebra and the insertion orders
# ---------------------------------------------------------------------------

# ring modulus -> shapes scanned exhaustively
SCAN_SHAPES = {4: ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3)), 6: ((1, 1), (1, 2), (1, 3), (2, 2))}
UNIQUENESS_SHAPES = ((1, 1), (1, 2), (1, 3), (2, 2))
# rows x cols of the matrices over Z/4 that hit the determinant cap
BIG_SHAPES = ((9, 10), (10, 10), (11, 12), (12, 12))


def _big_matrix(rows, cols):
    """A fixed surjective matrix over Z/4: unit upper triangular on the first
    rows columns, fixed entries elsewhere."""
    return [
        [1 if j == i else ((i + 2 * j + 1) % 4 if j > i else 0) for j in range(cols)]
        for i in range(rows)
    ]


def inputs_normal_forms(ns, seed):
    """Every matrix of each scanned shape, in a seeded order."""
    from ficat import Mat

    rng = random.Random(seed)
    scans = []
    for n_mod, shapes in SCAN_SHAPES.items():
        ring = ns["rings"][n_mod]
        for rows, cols in shapes:
            mats = [Mat(ring, rows, cols, data) for data in product(range(n_mod), repeat=rows * cols)]
            rng.shuffle(mats)
            scans.append((n_mod, rows, cols, mats))
    big = [Mat.from_rows(ns["rings"][4], _big_matrix(r, c)) for r, c in BIG_SHAPES]
    return {"scans": scans, "big": big}


def _poset_pairs(elements):
    """The compared pairs: every element of target rank <= 2 against every
    element."""
    low = [i for i, f in enumerate(elements) if f.dst <= 2]
    return [(i, j) for i in low for j in range(len(elements))]


def solve_normal_forms(rnd, ns, inputs):
    from ficat import factor_surjection
    from ficat.matrices import column_adapted, is_surjective
    from ficat.si import osi_factor
    from ficat.vic import gl_pairs
    from ficat.wporder import (osi_insertion_phi, osi_preceq, osi_total_cmp, ovic_phi_for,
                               ovic_preceq, ovic_total_cmp)

    out = {"scans": []}
    for n_mod, rows, cols, mats in inputs["scans"]:
        with rnd.span("matrices.is_surjective"):
            surj = [m for m in mats if rnd.call(is_surjective, m)]
        with rnd.span("matrices.factor_surjection"):
            factors = [rnd.call(factor_surjection, m) for m in surj]
        out["scans"].append((n_mod, rows, cols, surj, factors))
    r4 = ns["rings"][4]
    uniq = []
    for n_mod, rows, cols, surj, factors in out["scans"]:
        if n_mod != 4 or (rows, cols) not in UNIQUENESS_SHAPES:
            continue
        with rnd.span("vic.gl_pairs"):
            group = rnd.call(gl_pairs, r4, rows)
        with rnd.span("matrices.mul"):
            moved = [[rnd.call(ainv.mul, m) for _, ainv, _ in group] for m in surj]
        with rnd.span("matrices.column_adapted"):
            hits = [[k for k, x in enumerate(row) if rnd.call(column_adapted, x) is not None]
                    for row in moved]
        uniq.append((rows, cols, surj, factors, group, hits))
    out["uniqueness"] = uniq
    with rnd.span("vic.gl_pairs"):
        out["gl3"] = rnd.call(gl_pairs, r4, 3)
    big = []
    for m in inputs["big"]:
        with rnd.span("matrices.is_surjective"):
            s = rnd.call(is_surjective, m, fault="det-cap")
        with rnd.span("matrices.factor_surjection"):
            f = rnd.call(factor_surjection, m, fault="det-cap")
        big.append((m, s, f))
    out["big"] = big
    with rnd.span("si.hom"):
        si_maps = rnd.call(ns["si"].hom, 1, 2)
    with rnd.span("si.osi_factor"):
        out["osi_factor"] = [(mor, rnd.call(osi_factor, mor)) for mor in si_maps]
    posets = []
    for label, cat, layer, preceq, total_cmp, phi_for in (
        ("OVIC(Z/4)", ns["ovic"], "vic", ovic_preceq, ovic_total_cmp, ovic_phi_for),
        ("OSI(Z/2)", ns["osi"], "si", osi_preceq, osi_total_cmp, osi_insertion_phi),
    ):
        with rnd.span(layer + ".hom"):
            elements = [f for n in range(1, 4) for f in rnd.call(cat.hom, 1, n)]
        pairs = _poset_pairs(elements)
        with rnd.span("wporder.preceq"):
            related = [(i, j) for i, j in pairs if rnd.call(preceq, elements[i], elements[j])]
        with rnd.span("wporder.total_cmp"):
            cmp = {(i, j): rnd.call(total_cmp, elements[i], elements[j]) for i, j in pairs}
        with rnd.span("wporder.phi"):
            phis = {(i, j): rnd.call(phi_for, elements[i], elements[j]) for i, j in related if i != j}
        posets.append((label, elements, pairs, related, cmp, phis))
    out["posets"] = posets
    return out


def _check_factorization(rnd, where, m_rows, f1, f2, n_mod):
    f1r, f2r = _mat_rows(f1), _mat_rows(f2)
    rnd.expect(ref.mat_mul(f2r, f1r, n_mod) == m_rows, "%s: f2 f1 != m" % where)
    rnd.expect(ref.column_adapted(f1r, n_mod), "%s: f1 is not column-adapted" % where)
    rnd.expect(ref.is_invertible(f2r, n_mod), "%s: f2 is not invertible" % where)


def _symplectic_gram(pairs):
    g = [[0] * (2 * pairs) for _ in range(2 * pairs)]
    for t in range(pairs):
        g[2 * t][2 * t + 1] = 1
        g[2 * t + 1][2 * t] = -1
    return g


def _is_symplectic(f, src_gram, dst_gram, n_mod):
    ft = ref.transpose(f, len(src_gram))
    return ref.mat_mul(ft, ref.mat_mul(dst_gram, f, n_mod), n_mod) == ref.reduce_mat(src_gram, n_mod)


def verify_normal_forms(rnd, ns, inputs, out):
    rng = random.Random(rnd.seed)
    for n_mod, rows, cols, surj, factors in out["scans"]:
        where = "%dx%d over Z/%d" % (rows, cols, n_mod)
        want = ref.surjection_count(n_mod, rows, cols)
        rnd.expect(len(surj) == want, "%s: %d surjections, closed form %d" % (where, len(surj), want))
        for m, (f1, f2) in zip(surj, factors):
            _check_factorization(rnd, where, _mat_rows(m), f1, f2, n_mod)
    for rows, cols, surj, factors, group, hits in out["uniqueness"]:
        rnd.expect(len(group) == ref.gl_order(4, rows), "GL_%d(Z/4) has %d elements" % (rows, len(group)))
        for (f1, f2), h in zip(factors, hits):
            ok = len(h) == 1 and group[h[0]][0].data == f2.data
            rnd.expect(ok, "%dx%d over Z/4: %d elements g of GL make g^-1 m adapted, or the one is not f2"
                       % (rows, cols, len(h)))
    gl3 = out["gl3"]
    rnd.expect(len(gl3) == ref.gl_order(4, 3), "GL_3(Z/4) has %d elements, closed form %d"
               % (len(gl3), ref.gl_order(4, 3)))
    rnd.expect(len({a.data for a, _, _ in gl3}) == len(gl3), "GL_3(Z/4) lists a matrix twice")
    for a, ainv, d in rng.sample(gl3, 200):
        ar, air = _mat_rows(a), _mat_rows(ainv)
        rnd.expect(ref.mat_mul(ar, air, 4) == ref.identity(3) and ref.det(ar, 4) == d and d % 2,
                   "GL_3(Z/4) triple with a wrong inverse or determinant")
    for m, s, f in out["big"]:
        where = "%dx%d over Z/4" % (m.rows, m.cols)
        if s is not None:
            rnd.expect(s is True, "%s: a surjective matrix is reported not onto" % where)
        if f is not None:
            _check_factorization(rnd, where, _mat_rows(m), f[0], f[1], 4)
    std1, std2 = _symplectic_gram(1), _symplectic_gram(2)
    for mor, (f1, f2, lam) in out["osi_factor"]:
        f1r, f2r, lamr = _mat_rows(f1.f), _mat_rows(f2.f), _mat_rows(lam.gram)
        rnd.expect(ref.mat_mul(f1r, f2r, 2) == _mat_rows(mor.f), "osi_factor: f1 f2 != f")
        rnd.expect(ref.row_adapted(f1r, 2, 2), "osi_factor: f1 is not row-adapted")
        rnd.expect(ref.is_invertible(f2r, 2), "osi_factor: f2 is not invertible")
        rnd.expect(_is_symplectic(f2r, std1, lamr, 2) and _is_symplectic(f1r, lamr, std2, 2),
                   "osi_factor: the factors do not carry the forms")
    related_total = 0
    for label, elements, pairs, related, cmp, phis in out["posets"]:
        _verify_poset(rnd, label, elements, pairs, related, cmp, phis)
        related_total += len(related)
    rnd.counts["wporder.related_pairs"] = related_total


def _verify_poset(rnd, label, elements, pairs, related, cmp, phis):
    import functools

    rel = set(related)
    low = sorted({i for i, _ in pairs})
    n_mod = elements[0].ring.size
    for i in low:
        rnd.expect((i, i) in rel, "%s: an element is not below itself" % label)
        rnd.expect(cmp[(i, i)] == 0, "%s: total order does not put an element equal to itself" % label)
    for i, j in pairs:
        if (j, i) in cmp:
            rnd.expect(cmp[(i, j)] == -cmp[(j, i)], "%s: total order is not antisymmetric" % label)
            if i != j and (i, j) in rel:
                rnd.expect((j, i) not in rel, "%s: preceq is not antisymmetric" % label)
        if (i, j) in rel and i != j:
            rnd.expect(cmp[(i, j)] == -1, "%s: total order does not extend preceq" % label)
            for k in range(len(elements)):
                if (j, k) in rel:
                    rnd.expect((i, k) in rel, "%s: preceq is not transitive" % label)
        rnd.expect((cmp[(i, j)] == 0) == (i == j), "%s: total order ties distinct elements" % label)
    # The total order is linear: the compared elements, sorted by it, come
    # out in an order where every other element sits after a prefix of them.
    order = sorted(low, key=functools.cmp_to_key(lambda a, b: cmp[(a, b)]))
    for k, i in enumerate(order[1:]):
        rnd.expect(cmp[(order[k], i)] == -1, "%s: total order is not transitive" % label)
    for j in range(len(elements)):
        below = [cmp[(i, j)] == -1 for i in order]
        rnd.expect(below == sorted(below, reverse=True), "%s: total order is not transitive" % label)
    for (i, j), phi in phis.items():
        f, g = elements[i], elements[j]
        if hasattr(f, "fp"):
            ok = (ref.mat_mul(_mat_rows(phi.f), _mat_rows(f.f), n_mod) == _mat_rows(g.f)
                  and ref.mat_mul(_mat_rows(f.fp), _mat_rows(phi.fp), n_mod) == _mat_rows(g.fp)
                  and ref.mat_mul(_mat_rows(phi.fp), _mat_rows(phi.f), n_mod) == ref.identity(phi.f.cols)
                  and ref.column_adapted(_mat_rows(phi.fp), n_mod))
        else:
            ok = (ref.mat_mul(_mat_rows(phi.f), _mat_rows(f.f), n_mod) == _mat_rows(g.f)
                  and _is_symplectic(_mat_rows(phi.f), _symplectic_gram(f.dst), _symplectic_gram(g.dst), n_mod)
                  and ref.row_adapted(_mat_rows(phi.f), n_mod, 2 * f.dst))
        rnd.expect(ok, "%s: phi does not carry f to g" % label)


# ---------------------------------------------------------------------------
# the README commands
# ---------------------------------------------------------------------------

README_COMMANDS = (
    ("ring-info", ["ring-info", "--ring", "Z/6"]),
    ("factor", ["factor", "--ring", "Z/4", "--matrix", "[[2,3]]"]),
    ("hom-enum-count", ["hom-enum", "--cat", "VIC", "--ring", "Z/2", "--src", "1", "--dst", "2",
                        "--count-only"]),
    ("hom-enum-osi", ["hom-enum", "--cat", "OSI", "--ring", "Z/2", "--src", "1", "--dst", "2"]),
    ("compose", ["compose", "--cat", "FI",
                 "--f", '{"src":1,"dst":2,"payload":{"images":[1]}}',
                 "--g", '{"src":2,"dst":3,"payload":{"images":[0,2]}}']),
    ("order-cmp-ovic", ["order-cmp", "--cat", "OVIC", "--ring", "Z/2",
                        "--lhs", '{"f": [[1], [0]], "fp": [[1, 0]]}',
                        "--rhs", '{"f": [[0], [1]], "fp": [[0, 1]]}']),
    ("order-cmp-osi", ["order-cmp", "--cat", "OSI", "--ring", "Z/2", "--relation", "preceq",
                       "--lhs", '{"f": [[1,0],[0,1]]}', "--rhs", '{"f": [[0,0],[0,0],[1,0],[0,1]]}']),
    ("order-phi", ["order-phi", "--cat", "OVIC", "--ring", "Z/2",
                   "--lhs", '{"f": [[0], [1]], "fp": [[0, 1]]}',
                   "--rhs", '{"f": [[0], [0], [1]], "fp": [[0, 0, 1]]}']),
    ("counts", ["counts", "--cat", "SI", "--ring", "Z/2", "--src", "1", "--dst", "2"]),
    ("module-dims", ["module-dims", "--cat", "VIC", "--ring", "Z/2", "--module", "P1",
                     "--max-rank", "3", "--field", "F2"]),
    ("homology", ["homology", "--cat", "FI", "--module", "P0", "--variant", "triple", "--rank", "3"]),
)

# The README commands each workload runs for its cold latency.
README_SUBSETS = {
    "homology": ("module-dims", "homology"),
    "algebra": ("ring-info", "hom-enum-count", "hom-enum-osi", "compose", "counts",
                "factor", "order-cmp-ovic", "order-cmp-osi", "order-phi"),
}


def readme_commands(workload):
    wanted = README_SUBSETS[workload]
    return [(name, argv) for name, argv in README_COMMANDS if name in wanted]


def _entries(obj):
    return obj["entries"] if isinstance(obj, dict) else obj


def _ovic_stage_key(f, fp):
    """The staged total-order key over a local ring: target rank, pivot
    columns of fp, the columns of fp, the rows of f off the pivots."""
    n, d = len(f), len(fp)
    pivots = []
    for i in range(d):
        pivots.append(next(c for c in range(n) if [fp[t][c] for t in range(d)] ==
                           [1 if t == i else 0 for t in range(d)]))
    cols = [tuple(fp[t][c] for t in range(d)) for c in range(n)]
    free = [tuple(f[r]) for r in range(n) if r not in pivots]
    return (n, tuple(pivots), tuple(cols), tuple(free))


_OSI_COUNT = {}


def _osi_hom_count_z2(src, dst):
    """|OSI(Z/2)(src, dst)| by brute force over all 2dst x 2src matrices."""
    key = (src, dst)
    if key not in _OSI_COUNT:
        rows, cols = 2 * dst, 2 * src
        gs, gd = _symplectic_gram(src), _symplectic_gram(dst)
        total = 0
        for data in product((0, 1), repeat=rows * cols):
            f = [list(data[i * cols:(i + 1) * cols]) for i in range(rows)]
            if _is_symplectic(f, gs, gd, 2) and ref.row_adapted(f, 2, cols):
                total += 1
        _OSI_COUNT[key] = total
    return _OSI_COUNT[key]


def check_readme_output(name, argv, code, stdout):
    """Problems with one README command's exit code and output."""
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append("%s: %s" % (name, what))

    if code != 0:
        return ["%s: exit code %d, output %r" % (name, code, stdout[-300:])]
    try:
        records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except ValueError:
        return ["%s: output is not JSON lines" % name]
    if not records:
        return ["%s: no output" % name]
    rec = records[0]
    args = dict(zip(argv[1::2], argv[2::2]))
    if name == "ring-info":
        expect(rec["size"] == 6 and rec["unit_count"] == ref.unit_count(6)
               and rec["units"] == [1, 5] and rec["factors"] == ["Z/2", "Z/3"], "wrong ring data")
    elif name == "factor":
        m = json.loads(args["--matrix"])
        f1, f2 = rec["f1"], rec["f2"]
        expect(ref.mat_mul(f2, f1, 4) == m, "f2 f1 != m")
        expect(ref.column_adapted(f1, 4) and ref.is_invertible(f2, 4), "factors are not in normal form")
    elif name == "hom-enum-count":
        expect(rec["count"] == ref.HomCounts("VIC", 2).hom(1, 2), "count differs from the closed form")
    elif name == "hom-enum-osi":
        seen = set()
        for r in records:
            f = _entries(r["payload"]["f"])
            seen.add(json.dumps(f))
            expect(r["src"] == 1 and r["dst"] == 2 and _is_symplectic(
                f, _symplectic_gram(1), _symplectic_gram(2), 2) and ref.row_adapted(f, 2, 2),
                "a listed map is not a row-adapted symplectic map")
        expect(len(seen) == len(records) == _osi_hom_count_z2(1, 2), "count differs from brute force")
    elif name == "compose":
        f = json.loads(args["--f"])["payload"]["images"]
        g = json.loads(args["--g"])["payload"]["images"]
        expect(rec["payload"]["images"] == [g[i] for i in f] and rec["src"] == 1 and rec["dst"] == 3,
               "composite differs from g . f")
    elif name == "order-cmp-ovic":
        lhs, rhs = json.loads(args["--lhs"]), json.loads(args["--rhs"])
        kl, kr = _ovic_stage_key(lhs["f"], lhs["fp"]), _ovic_stage_key(rhs["f"], rhs["fp"])
        want = "Less" if kl < kr else "Greater" if kl > kr else "Equal"
        expect(rec["result"] == want, "total order says %s, the staged key %s" % (rec["result"], want))
    elif name == "order-cmp-osi":
        # f precedes g when deleting coordinate pairs of g that hold no pivot
        # row gives f; the pivot rows of a row-adapted g are the first rows
        # equal to e_1, e_2, ...
        lhs, rhs = json.loads(args["--lhs"])["f"], json.loads(args["--rhs"])["f"]
        width = len(rhs[0])
        pivots = {next(r for r, row in enumerate(rhs) if row == [int(c == i) for c in range(width)])
                  for i in range(width)}
        witness = any(rhs[:2 * t] + rhs[2 * t + 2:] == lhs
                      for t in range(len(rhs) // 2) if not pivots & {2 * t, 2 * t + 1})
        expect(rec["result"] is witness, "preceq says %r, pair deletion %r" % (rec["result"], witness))
    elif name == "order-phi":
        lhs, rhs = json.loads(args["--lhs"]), json.loads(args["--rhs"])
        phi_f, phi_fp = _entries(rec["payload"]["f"]), _entries(rec["payload"]["fp"])
        expect(ref.mat_mul(phi_f, lhs["f"], 2) == rhs["f"] and ref.mat_mul(lhs["fp"], phi_fp, 2) == rhs["fp"],
               "phi does not carry lhs to rhs")
        expect(ref.mat_mul(phi_fp, phi_f, 2) == ref.identity(len(phi_f[0])) and ref.column_adapted(phi_fp, 2),
               "phi is not an adapted split injection")
    elif name == "counts":
        si = ref.HomCounts("SI", 2)
        expect(rec["hom"] == si.hom(1, 2) and rec["aut_dst"] == si.aut(2) and rec["aut_complement"] == si.aut(1)
               and rec["identity_holds"] is True, "counts differ from the closed forms")
    elif name == "module-dims":
        vic = ref.HomCounts("VIC", 2)
        expect(rec["dims"] == {str(n): vic.hom(1, n) for n in range(4)}, "dims differ from the hom counts")
    elif name == "homology":
        expect(rec == {"H0": 0, "H1": 0, "H2": 0}, "the simplex complex must be exact at rank 3")
    return problems


def inputs_algebra(ns, seed):
    return inputs_normal_forms(ns["normal_forms"], seed)


def solve_algebra(rnd, ns, inputs):
    return {"axioms": solve_axioms(rnd, ns["axioms"]),
            "normal_forms": solve_normal_forms(rnd, ns["normal_forms"], inputs)}


def verify_algebra(rnd, ns, inputs, out):
    verify_axioms(rnd, ns["axioms"], out["axioms"])
    verify_normal_forms(rnd, ns["normal_forms"], inputs, out["normal_forms"])


# workload -> (solve, verify, input maker or None); the setups live in worker.py
WORKLOADS = {
    "homology": (solve_homology, verify_homology, None),
    "algebra": (solve_algebra, verify_algebra, inputs_algebra),
}
