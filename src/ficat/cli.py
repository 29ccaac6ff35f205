"""Command-line front end.

Machine output is JSON lines: every record is one json.dumps(...,
sort_keys=True) line on standard output, so identical (args, seed) runs
are byte-identical.  --pretty renders records as aligned key/value rows
instead.  Exit codes: 0 success, 1 precondition error, 2 enumeration
budget exceeded, 3 invariant violation; error paths emit a single
{"error": code, "detail": text} record.  The environment variable
FICAT_BUDGET overrides the default enumeration budget.

At the top this module imports only errors and the standard library.  Each
command, and each category label it reads, imports the modules that path
uses, so a cold process compiles only those.
"""

import argparse
import json
import re
import sys

from .errors import BudgetExceeded, InvariantViolation, PreconditionError

# the choices of --variant and --profile, equal to modhom.VARIANTS and
# checks.PROFILES, written out so that building the parser imports neither
VARIANTS = ("plain", "prime", "double", "triple")
PROFILES = ("quick", "full")


class _Parser(argparse.ArgumentParser):
    """Argument errors surface as precondition errors (exit code 1)."""

    def error(self, message):
        raise PreconditionError(message)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _emit(args, record):
    if getattr(args, "pretty", False):
        width = max(len(k) for k in record)
        for k in sorted(record):
            v = record[k]
            if not isinstance(v, str):
                v = json.dumps(v, sort_keys=True)
            sys.stdout.write("%-*s  %s\n" % (width, k, v))
        sys.stdout.write("\n")
    else:
        sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


def _parse_json(text, flag):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise PreconditionError("invalid JSON for %s: %s" % (flag, exc))


# ---------------------------------------------------------------------------
# categories and serialization
# ---------------------------------------------------------------------------

CATEGORY_NAMES = ("FI", "VIC", "OVIC", "SI", "OSI")


def _build_cat(args):
    label = args.cat.upper()
    if label == "FI":
        from .catcore import FiCategory
        return FiCategory()
    if label not in CATEGORY_NAMES:
        raise PreconditionError("unknown category %r (expected one of %s)" % (args.cat, ", ".join(CATEGORY_NAMES)))
    if not args.ring:
        raise PreconditionError("--ring is required for %s" % label)
    from .rings import make_ring
    ring = make_ring(args.ring)
    units = None
    if getattr(args, "units", None):
        try:
            units = tuple(int(u) for u in args.units.split(","))
        except ValueError:
            raise PreconditionError("--units expects a comma-separated list of integers")
    if units is not None and label != "VIC":
        raise PreconditionError("--units only applies to VIC")
    if label in ("VIC", "OVIC"):
        from .vic import make_ovic_category, make_vic_category
        return make_vic_category(ring, units=units) if label == "VIC" else make_ovic_category(ring)
    from .si import make_osi_category, make_si_category
    return make_si_category(ring) if label == "SI" else make_osi_category(ring)


def mat_to_json(m):
    return {"ring": m.ring.spec, "rows": m.rows, "cols": m.cols, "entries": m.to_rows()}


def _int(x, what):
    """x when it is a JSON integer (true and false are not)."""
    if type(x) is not int:
        raise PreconditionError("%s must be an integer, got %s" % (what, json.dumps(x)))
    return x


def _rows_from_json(obj):
    if not isinstance(obj, list) or any(not isinstance(r, list) for r in obj):
        raise PreconditionError("matrix must be a list of rows or a matrix object")
    return [[_int(x, "a matrix entry") for x in row] for row in obj]


def _check_ring(obj, ring, what):
    """A JSON object's "ring", if it has one, must be the ring in force."""
    if "ring" in obj:
        from .rings import make_ring
        spec = make_ring(obj["ring"]).spec
        if spec != ring.spec:
            raise PreconditionError("%s is over %s, not over the ring in force %s" % (what, spec, ring.spec))


def mat_from_json(obj, ring):
    from .matrices import Mat
    if isinstance(obj, dict):
        _check_ring(obj, ring, "matrix")
        entries = obj.get("entries")
        if entries is None:
            raise PreconditionError("matrix object needs an \"entries\" field")
        if "rows" in obj or "cols" in obj:
            rows, cols = _int(obj.get("rows"), "rows"), _int(obj.get("cols"), "cols")
            data = _rows_from_json(entries)
            if len(data) != rows or any(len(row) != cols for row in data):
                raise PreconditionError("matrix dimensions do not match the entries")
            flat = tuple(x for row in data for x in row)
            for x in flat:
                ring.check_element(x)
            return Mat(ring, rows, cols, flat)
        obj = entries
    return Mat.from_rows(ring, _rows_from_json(obj))


def form_to_json(form):
    return {"ring": form.ring.spec, "gram": form.gram.to_rows()}


def form_from_json(obj, ring):
    from .si import SymplecticForm
    if not isinstance(obj, dict) or "gram" not in obj:
        raise PreconditionError("form must be an object with a \"gram\" field")
    _check_ring(obj, ring, "form")
    return SymplecticForm(mat_from_json(obj["gram"], ring))


def mor_to_json(cat, mor):
    if cat.name == "FI":
        payload = {"images": list(mor.images)}
    elif cat.name in ("VIC", "OVIC"):
        payload = {"f": mat_to_json(mor.f), "fp": mat_to_json(mor.fp)}
    else:
        payload = {
            "f": mat_to_json(mor.f),
            "src_form": form_to_json(mor.src_form),
            "dst_form": form_to_json(mor.dst_form),
        }
    return {"cat": cat.describe(), "src": mor.src, "dst": mor.dst, "payload": payload}


def mor_from_json(cat, obj, flag):
    if not isinstance(obj, dict):
        raise PreconditionError("%s must be a JSON morphism object" % flag)
    payload = obj.get("payload", obj)
    if not isinstance(payload, dict):
        raise PreconditionError("%s payload must be a JSON object" % flag)
    if cat.name == "FI":
        from .catcore import FiMorphism
        images = payload.get("images")
        if images is None:
            raise PreconditionError("%s needs an \"images\" field" % flag)
        if not isinstance(images, list):
            raise PreconditionError("%s \"images\" must be a list" % flag)
        dst = obj.get("dst", payload.get("dst"))
        if dst is None:
            raise PreconditionError("%s needs a \"dst\" field" % flag)
        mor = FiMorphism(len(images), _int(dst, flag + " dst"), tuple(_int(i, flag + " image") for i in images))
    elif cat.name in ("VIC", "OVIC"):
        from .vic import OvicMorphism, VicMorphism
        if "f" not in payload or "fp" not in payload:
            raise PreconditionError("%s needs \"f\" and \"fp\" fields" % flag)
        f = mat_from_json(payload["f"], cat.ring)
        fp = mat_from_json(payload["fp"], cat.ring)
        cls = OvicMorphism if cat.name == "OVIC" else VicMorphism
        mor = cls(f, fp)
    else:
        from .si import SiMorphism, standard_form
        if "f" not in payload:
            raise PreconditionError("%s needs an \"f\" field" % flag)
        f = mat_from_json(payload["f"], cat.ring)
        if "src_form" in payload:
            src_form = form_from_json(payload["src_form"], cat.ring)
        else:
            src_form = standard_form(cat.ring, f.cols // 2)
        if "dst_form" in payload:
            dst_form = form_from_json(payload["dst_form"], cat.ring)
        else:
            dst_form = standard_form(cat.ring, f.rows // 2)
        mor = SiMorphism(f, src_form, dst_form, check=True)
    if not cat.validate(mor):
        raise PreconditionError("%s is not a morphism of %s" % (flag, cat.describe()))
    return mor


_MODULE_RE = re.compile(r"^P(\d+)$")


def _module_degree(name):
    m = _MODULE_RE.match(name)
    if not m:
        raise PreconditionError("unknown module %r (expected P0, P1, ...)" % name)
    return int(m.group(1))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_ring_info(args):
    from .rings import make_ring
    ring = make_ring(args.ring)
    units = ring.units()
    _emit(args, {
        "spec": ring.spec,
        "size": ring.size,
        "moduli": list(ring.moduli),
        "factors": [f.spec for f in ring.local.factors],
        "is_local": len(ring.local.factors) == 1,
        "unit_count": len(units),
        "units": list(units),
    })
    return 0


def _cmd_hom_enum(args):
    cat = _build_cat(args)
    if args.count_only:
        _emit(args, {"count": cat.count_hom(args.src, args.dst)})
        return 0
    for mor in cat.hom(args.src, args.dst, budget=args.budget):
        _emit(args, mor_to_json(cat, mor))
    return 0


def _cmd_factor(args):
    from .matrices import factor_surjection
    from .rings import make_ring
    ring = make_ring(args.ring)
    m = mat_from_json(_parse_json(args.matrix, "--matrix"), ring)
    f1, f2 = factor_surjection(m)
    _emit(args, {"f1": f1.to_rows(), "f2": f2.to_rows()})
    return 0


def _cmd_compose(args):
    cat = _build_cat(args)
    f = mor_from_json(cat, _parse_json(args.f, "--f"), "--f")
    g = mor_from_json(cat, _parse_json(args.g, "--g"), "--g")
    _emit(args, mor_to_json(cat, cat.compose(g, f)))
    return 0


def _cmd_order_cmp(args):
    from .wporder import order_of
    cat = _build_cat(args)
    order = order_of(cat)
    lhs = mor_from_json(cat, _parse_json(args.lhs, "--lhs"), "--lhs")
    rhs = mor_from_json(cat, _parse_json(args.rhs, "--rhs"), "--rhs")
    if args.relation == "preceq":
        result = order.preceq(lhs, rhs)
    else:
        result = {-1: "Less", 0: "Equal", 1: "Greater"}[order.total_cmp(lhs, rhs)]
    _emit(args, {
        "relation": args.relation,
        "lhs": mor_to_json(cat, lhs),
        "rhs": mor_to_json(cat, rhs),
        "result": result,
    })
    return 0


def _cmd_order_phi(args):
    from .wporder import order_of
    cat = _build_cat(args)
    order = order_of(cat)
    lhs = mor_from_json(cat, _parse_json(args.lhs, "--lhs"), "--lhs")
    rhs = mor_from_json(cat, _parse_json(args.rhs, "--rhs"), "--rhs")
    _emit(args, mor_to_json(cat, order.phi(lhs, rhs)))
    return 0


def _cmd_axioms(args):
    from .catcore import check_axioms
    cat = _build_cat(args)
    report = check_axioms(cat, args.max_rank, seed=args.seed)
    _emit(args, report)
    return 0 if report["ok"] else 3


def _cmd_counts(args):
    cat = _build_cat(args)
    m, n = args.src, args.dst
    record = {"cat": cat.describe(), "src": m, "dst": n, "hom": cat.count_hom(m, n)}
    if cat.is_complemented and m <= n:
        record["aut_dst"] = cat.count_hom(n, n)
        record["aut_complement"] = cat.count_hom(n - m, n - m)
        record["identity_holds"] = record["hom"] * record["aut_complement"] == record["aut_dst"]
    _emit(args, record)
    return 0


def _cmd_module_dims(args):
    from .modhom import coef_field, representable
    cat = _build_cat(args)
    field = coef_field(args.field)
    module = representable(cat, _module_degree(args.module), args.max_rank, field)
    _emit(args, {
        "cat": cat.describe(),
        "module": module.name,
        "field": str(field),
        "dims": {str(n): module.dims[n] for n in range(module.max_rank + 1)},
        "truncation": module.max_rank,
    })
    return 0


def _cmd_homology(args):
    from .modhom import coef_field, complex_homology, representable, shift_complex
    cat = _build_cat(args)
    field = coef_field(args.field)
    degree = args.degree
    max_rank = args.max_rank if args.max_rank is not None else max(args.rank, degree + 1)
    if args.rank > max_rank:
        raise PreconditionError("--rank %d exceeds --max-rank %d" % (args.rank, max_rank))
    module = representable(cat, _module_degree(args.module), max_rank, field)
    cplx = shift_complex(module, degree + 1, variant=args.variant)
    _emit(args, complex_homology(cplx, args.rank, degree))
    return 0


def _cmd_checks(args):
    from .checks import run_profile
    records = run_profile(args.profile, seed=args.seed)
    for record in records:
        _emit(args, record)
    passed = sum(1 for r in records if r["pass"])
    ok = passed == len(records)
    _emit(args, {
        "profile": args.profile,
        "criteria": len(records),
        "passed": passed,
        "failed": len(records) - passed,
        "pass": ok,
    })
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# the parser
# ---------------------------------------------------------------------------

def build_parser():
    shared = _Parser(add_help=False)
    shared.add_argument("--pretty", action="store_true", help="aligned key/value output instead of JSON lines")

    # the docstring's last paragraph describes the source, not the command line
    parser = _Parser(prog="ficat", description=__doc__ and __doc__.rsplit("\n\n", 1)[0], parents=[shared])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def cat_flags(p, ring_required=False):
        p.add_argument("--cat", required=True, help="category: FI, VIC, OVIC, SI, OSI")
        p.add_argument("--ring", required=ring_required, help="ring spec, e.g. Z/4 or Z/2xZ/3")
        p.add_argument("--units", help="comma-separated unit subgroup for VIC, e.g. 1,3")

    p = sub.add_parser("ring-info", parents=[shared], help="describe a finite ring")
    p.add_argument("--ring", required=True)
    p.set_defaults(func=_cmd_ring_info)

    p = sub.add_parser("hom-enum", parents=[shared], help="enumerate or count a hom set")
    cat_flags(p)
    p.add_argument("--src", type=int, required=True)
    p.add_argument("--dst", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--budget", type=int, default=None, help="enumeration budget override")
    p.set_defaults(func=_cmd_hom_enum)

    p = sub.add_parser("factor", parents=[shared], help="factor a surjection as invertible . column-adapted")
    p.add_argument("--ring", required=True)
    p.add_argument("--matrix", required=True, help="JSON rows, e.g. '[[2,3]]'")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("compose", parents=[shared], help="compose --g after --f")
    cat_flags(p)
    p.add_argument("--f", required=True, help="JSON morphism applied first")
    p.add_argument("--g", required=True, help="JSON morphism applied second")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("order-cmp", parents=[shared], help="compare two morphisms (OVIC or OSI)")
    cat_flags(p)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--relation", choices=("total", "preceq"), default="total")
    p.set_defaults(func=_cmd_order_cmp)

    p = sub.add_parser("order-phi", parents=[shared], help="realizing morphism phi with rhs = phi . lhs")
    cat_flags(p)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(func=_cmd_order_phi)

    p = sub.add_parser("axioms", parents=[shared], help="run the category axiom suite")
    cat_flags(p)
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("counts", parents=[shared], help="hom count and the counting identity")
    cat_flags(p)
    p.add_argument("--src", type=int, required=True)
    p.add_argument("--dst", type=int, required=True)
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("module-dims", parents=[shared], help="dimensions of a representable module")
    cat_flags(p)
    p.add_argument("--module", required=True, help="P0, P1, ...")
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--field", default="Q", help="coefficient field: Q or Fp")
    p.set_defaults(func=_cmd_module_dims)

    p = sub.add_parser("homology", parents=[shared], help="homology of a shift complex at one rank")
    cat_flags(p)
    p.add_argument("--module", required=True, help="P0, P1, ...")
    p.add_argument("--variant", choices=VARIANTS, default="plain")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--degree", type=int, default=2, help="report H_0..H_degree")
    p.add_argument("--max-rank", type=int, default=None, help="truncation (default: max(rank, degree + 1))")
    p.add_argument("--field", default="Q", help="coefficient field: Q or Fp")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("checks", parents=[shared], help="run the numbered verification checks")
    p.add_argument("--profile", choices=PROFILES, default="quick")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_checks)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except PreconditionError as exc:
        _emit(argparse.Namespace(pretty=False), {"error": "precondition", "detail": str(exc)})
        return 1
    except BudgetExceeded as exc:
        _emit(argparse.Namespace(pretty=False), {"error": "budget", "detail": str(exc)})
        return 2
    except InvariantViolation as exc:
        _emit(argparse.Namespace(pretty=False), {"error": "invariant", "detail": str(exc)})
        return 3


if __name__ == "__main__":
    sys.exit(main())
