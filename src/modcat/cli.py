"""Command-line front end and file formats.

Subcommands mirror the library modules:

    ring validate|involutions|homs
    zmod validate|enumerate
    twocat validate|pi0|family
    pointed classes|braidings|squareclasses
    dy dims|diagnostic
    fusion2 real|ffield|pointed

All payloads are exact (integers, fraction strings, coefficient vectors) and
serialized with sorted keys, so identical invocations produce byte-identical
output.  Exit codes: 0 on success, 1 on a validation error (the message names
the violated axiom and its indices), 2 on a usage error: bad arguments, or a
missing, unreadable, malformed or ill-typed input file.  Every usage error,
argparse's included, is a ``UsageError`` raised where the input is checked,
and prints {"status": "usage", "error": {"type": "UsageError", "message": ...}}.

File formats (JSON):

    ring     {"rank": r, "labels": [...], "unit": [...],
              "mult": [[[c_ijk ...] ...] ...], "involution": [...]?}
    module   {"ring": <ring object or file path>, "rank": r,
              "action": [per ring basis index, an r x r array]}
    skeleton {"simples": [...], "hom_nonzero": [[bool ...] ...],
              "hom_dims": [[int ...] ...]?, "max_end_dim": [...]?}
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable

from . import basedring, dy, fieldprofile, fields, fusion2, pointed, skeleton, zmodule
from .errors import ModcatError, UsageError, ValidationError, record


_EXIT_CODES = {"ok": 0, "error": 1, "usage": 2}


@record
class CommandResult:
    status: str                 # "ok", "error" or "usage"
    payload: dict
    human_table: str | Callable[[], str] | None = None  # a callable is called for md only

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.status]


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, bad UTF-8 or JSON
        raise UsageError(f"{path}: {exc.strerror if isinstance(exc, OSError) else exc}") from None


def _json_object(obj, what: str, keys=()) -> dict:
    """obj, or the JSON file it names, checked to be an object with the keys;
    a key set to null is missing."""
    if isinstance(obj, str):
        obj = _load_json(obj)
    if not isinstance(obj, dict):
        raise UsageError(f"a {what} must be a JSON object, not {type(obj).__name__}")
    if missing := [key for key in keys if obj.get(key) is None]:
        raise UsageError(f"a {what} needs the keys {', '.join(keys)}; missing: {', '.join(missing)}")
    return obj


def _is_json_list(value, kind, depth: int = 1) -> bool:
    """value is a list (of lists, depth deep) of JSON values of type kind."""
    if depth == 0:
        return type(value) is kind
    return isinstance(value, list) and all(_is_json_list(x, kind, depth - 1) for x in value)


def _declared_rank(obj, what: str) -> int | None:
    """obj's "rank", checked to be a non-negative int; None if it has none."""
    rank = obj.get("rank")
    if rank is not None and (type(rank) is not int or rank < 0):
        raise UsageError(f"a {what}'s rank must be a non-negative int, not {rank!r}")
    return rank


def _ring_from_obj(obj) -> basedring.BasedRingData:
    obj = _json_object(obj, "ring", ("mult", "unit"))
    labels, rank = obj.get("labels"), _declared_rank(obj, "ring")
    if labels is None and rank is None:
        raise UsageError("a ring needs its labels or its rank")
    data = basedring.BasedRingData.build(
        labels=labels if labels is not None else [f"b{i}" for i in range(rank)],
        mult=obj["mult"],
        unit_coeffs=obj["unit"],
        involution=obj.get("involution"))
    if rank is not None and rank != data.rank:
        raise ValidationError(f"declared rank {rank} != label count {data.rank}")
    return data


def _skeleton_from_obj(obj) -> skeleton.TwoCatSkeleton:
    obj = _json_object(obj, "skeleton", ("simples", "hom_nonzero"))
    for key, kind, depth, what in (("simples", str, 1, "a list of strings"),
                                   ("hom_nonzero", bool, 2, "rows of true or false"),
                                   ("hom_dims", int, 2, "rows of ints"),
                                   ("max_end_dim", int, 1, "a list of ints")):
        if obj.get(key) is not None and not _is_json_list(obj[key], kind, depth):
            raise UsageError(f"{key} must be {what}")
    return skeleton.TwoCatSkeleton.build(
        simples=obj["simples"],
        hom_nonzero=obj["hom_nonzero"],
        hom_dims=obj.get("hom_dims"),
        max_end_dim=obj.get("max_end_dim"))


def _parse_group(text: str) -> pointed.FiniteAbelianGroup:
    try:
        orders = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--group takes comma-separated invariant factors, not {text!r}") from None
    return pointed.FiniteAbelianGroup(() if orders == (1,) else orders)  # 1: the trivial group


def _field_code(args) -> str:
    return args.field or getattr(args, "global_field", None) or "ac0"


def _markdown_table(headers, rows) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


# -- command implementations -------------------------------------------------

def _cmd_ring_validate(args) -> CommandResult:
    data = _ring_from_obj(args.file)
    ring = basedring.validate_zplus_ring(data)
    certs = basedring.find_weak_based_involutions(ring)
    payload = {
        "valid": True,
        "rank": ring.rank,
        "labels": list(ring.labels),
        "weak_based": bool(certs),
    }
    if certs:
        cert = certs[0]
        payload["involution"] = list(cert.involution)
        payload["t_values"] = list(cert.t_values)
        payload["based"] = cert.based
        human = f"valid ring, weak based: yes, t={tuple(cert.t_values)}"
    else:
        human = "valid ring, weak based: no"
    return CommandResult("ok", payload, human)


def _cmd_ring_involutions(args) -> CommandResult:
    ring = basedring.validate_zplus_ring(_ring_from_obj(args.file))
    certs = basedring.find_weak_based_involutions(ring)
    payload = {"count": len(certs),
               "certificates": [{"involution": list(c.involution),
                                 "t_values": list(c.t_values),
                                 "based": c.based,
                                 "i0": sorted(c.i0_set)} for c in certs]}
    return CommandResult("ok", payload,
                         _markdown_table(["involution", "t_values", "based"],
                                         [(list(c.involution), list(c.t_values), c.based)
                                          for c in certs]))


def _cmd_ring_homs(args) -> CommandResult:
    src = basedring.validate_zplus_ring(_ring_from_obj(args.source))
    tgt = basedring.validate_zplus_ring(_ring_from_obj(args.target))
    homs = zmodule.enumerate_ring_homs(src, tgt, cap_scale=args.cap_scale)
    payload = {"count": len(homs),
               "homs": [{"matrix": [list(row) for row in h.matrix]} for h in homs]}
    return CommandResult("ok", payload,
                         _markdown_table(["#", "matrix"],
                                         [(i, [list(r) for r in h.matrix])
                                          for i, h in enumerate(homs)]))


def _cmd_zmod_validate(args) -> CommandResult:
    obj = _json_object(args.file, "module", ("ring", "rank", "action"))
    ring_ref = obj["ring"]
    if isinstance(ring_ref, str):
        # a relative ring path is resolved against the module file's directory
        ring_ref = os.path.join(os.path.dirname(args.file), ring_ref)
    ring = basedring.validate_zplus_ring(_ring_from_obj(ring_ref))
    rank = _declared_rank(obj, "module")
    data = zmodule.ZPlusModuleData.build(ring, obj["action"])
    if data.rank != rank:
        raise ValidationError(f"declared rank {rank} != action rank {data.rank}")
    module = zmodule.validate_module(data)
    payload = {"valid": True, "rank": module.rank,
               "irreducible": zmodule.is_irreducible(module),
               "indecomposable": zmodule.is_indecomposable(module)}
    return CommandResult("ok", payload,
                         f"valid module of rank {module.rank}; "
                         f"irreducible: {payload['irreducible']}, "
                         f"indecomposable: {payload['indecomposable']}")


def _cmd_zmod_enumerate(args) -> CommandResult:
    ring = basedring.validate_zplus_ring(_ring_from_obj(args.file))
    modules = zmodule.enumerate_irreducible_modules(ring, cap_scale=args.cap_scale)
    if args.indecomposable:
        modules = [m for m in modules if zmodule.is_indecomposable(m)]
    payload = {"count": len(modules),
               "modules": [{"rank": m.rank,
                            "action": [[list(row) for row in mat] for mat in m.action]}
                           for m in modules]}
    return CommandResult("ok", payload,
                         _markdown_table(["#", "rank"],
                                         [(i, m.rank) for i, m in enumerate(modules)]))


def _cmd_twocat_validate(args) -> CommandResult:
    validated = skeleton.validate_skeleton(_skeleton_from_obj(args.file))
    return CommandResult("ok", {"valid": True, "num_simples": validated.size},
                         f"valid skeleton with {validated.size} simples")


def _cmd_twocat_pi0(args) -> CommandResult:
    validated = skeleton.validate_skeleton(_skeleton_from_obj(args.file))
    components = skeleton.pi0(validated)
    report = skeleton.compactness_report(validated)
    payload = {"components": components,
               "num_components": report.num_components,
               "num_simples": report.num_simples,
               "is_connected": report.is_connected}
    return CommandResult("ok", payload,
                         _markdown_table(["component", "simples"],
                                         [(i, [validated.simples[j] for j in comp])
                                          for i, comp in enumerate(components)]))


def _cmd_twocat_family(args) -> CommandResult:
    validated = skeleton.truncated_family_2vect_fp(args.p, args.depth)
    report = skeleton.compactness_report(validated)
    payload = {"simples": list(validated.simples),
               "hom_dims": [list(r) for r in validated.data.hom_dims],
               "max_end_dim": list(validated.data.max_end_dim),
               "num_components": report.num_components,
               "num_simples": report.num_simples,
               "is_connected": report.is_connected,
               "depth": args.depth}
    return CommandResult("ok", payload,
                         f"depth {args.depth}: {report.num_simples} simples, "
                         f"{report.num_components} component(s)")


def _cmd_pointed_classes(args) -> CommandResult:
    group = _parse_group(args.group)
    profile = fieldprofile.profile_from_code(_field_code(args))
    classes = pointed.module_classes(group, profile)
    payload = {"count": len(classes),
               "separable_count": sum(1 for c in classes if c.separable),
               "classes": [{"label": c.label,
                            "subgroup_order": c.subgroup.order,
                            "subgroup_invariants": list(c.subgroup.invariant_factors),
                            "cocycle_class_index": c.cocycle_class_index,
                            "separable": c.separable} for c in classes]}
    return CommandResult("ok", payload, lambda: _markdown_table(
        ["label", "subgroup", "order", "class", "separable"],
        [(c.label, str(c.subgroup), c.subgroup.order, c.cocycle_class_index, c.separable)
         for c in classes]))


def _cmd_pointed_braidings(args) -> CommandResult:
    profile = fieldprofile.profile_from_code(_field_code(args))
    braidings = pointed.braidings_on_cyclic(args.p, profile)
    payload = {"count": len(braidings),
               "zeta_exponents": [b.zeta_exponent for b in braidings]}
    return CommandResult("ok", payload,
                         f"{len(braidings)} braiding(s): zeta exponents "
                         f"{[b.zeta_exponent for b in braidings]}")


def _cmd_pointed_squareclasses(args) -> CommandResult:
    witnesses = pointed.square_class_witnesses(args.bound)
    payload = {"bound": args.bound, "count": len(witnesses), "witnesses": witnesses}
    return CommandResult("ok", payload,
                         f"{len(witnesses)} square classes up to {args.bound}: {witnesses}")


def _cmd_dy_dims(args) -> CommandResult:
    group = _parse_group(args.group)
    field = fields.field_from_code(args.coeff)
    functor = dy.PointedFunctorData.identity(group, field)
    complex_ = dy.build_dy_complex(functor, args.nmax)
    dims = dy.dy_cohomology_dims(complex_)
    payload = {"group": list(group.cyclic_orders), "coeff": args.coeff,
               "nmax": args.nmax,
               "cochain_dims": list(complex_.cochain_dims),
               "h_dims": dims}
    return CommandResult("ok", payload,
                         _markdown_table(["n", "dim H^n"], list(enumerate(dims))))


def _cmd_dy_diagnostic(args) -> CommandResult:
    group = _parse_group(args.group)
    field = fields.field_from_code(args.coeff)
    diag = dy.separability_diagnostic(group, field)
    payload = {"h2_dim": diag.h2_dim, "h3_dim": diag.h3_dim,
               "consistent_with_separability": diag.consistent_with_separability}
    return CommandResult("ok", payload,
                         f"H^2 = {diag.h2_dim}, H^3 = {diag.h3_dim}, "
                         f"consistent with separability: {diag.consistent_with_separability}")


def _product_table(payload: dict, objects, name, product) -> CommandResult:
    """The payload with the "table" of product summands of every ordered pair
    of objects, keyed "left x right", and the same table in markdown."""
    pairs = [(name(a), name(b), product(a, b).summands) for a in objects for b in objects]
    payload["table"] = {f"{a} x {b}": list(summands) for a, b, summands in pairs}
    return CommandResult("ok", payload, _markdown_table(
        ["left", "right", "product"], [(a, b, " + ".join(summands)) for a, b, summands in pairs]))


def _cmd_fusion2_real(args) -> CommandResult:
    return _product_table({}, [fieldprofile.BASE, fieldprofile.COMPLEXIFICATION,
                               fieldprofile.QUATERNION],
                          lambda d: d.name, fusion2.real_division_tensor)


def _cmd_fusion2_ffield(args) -> CommandResult:
    product = fusion2.finite_field_tensor(args.p, args.q, args.r)
    payload = {"p": args.p, "q": args.q, "r": args.r,
               "summands": list(product.summands),
               "r_copies_rule_holds": product.r_copies_rule_holds}
    note = "" if product.r_copies_rule_holds else \
        "  (does not match the min(q,r)-copies shortcut: it requires one degree to divide the other)"
    return CommandResult("ok", payload,
                         " + ".join(product.summands) + note)


def _cmd_fusion2_pointed(args) -> CommandResult:
    if not fields._is_prime(args.p):
        raise UsageError(f"--p {args.p} is not prime")
    group = pointed.FiniteAbelianGroup((args.p,))
    classes = pointed.module_classes(group, fieldprofile.alg_closed(0))
    zeta = pointed.BraidingParam(args.p, args.zeta)
    return _product_table({"p": args.p, "zeta_exponent": args.zeta}, classes,
                          lambda c: c.label,
                          lambda a, b: fusion2.pointed_braided_product(args.p, zeta, a, b))


# -- driver ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises UsageError on a bad command line; subparsers share the class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


_ARG_CAP_SCALE = ("--cap-scale", {"type": int, "default": 1})
_ARG_P = ("--p", {"type": int, "required": True})
_ARG_FIELD = ("--field", {"default": None})
_ARG_GROUP = ("--group", {"required": True,
                          "help": "comma-separated invariant factors, e.g. 2,4; 1 is the trivial group"})

# command -> (help, {subcommand: (handler, [(argument, add_argument keywords)])})
_COMMANDS = {
    "ring": ("based ring operations", {
        "validate": (_cmd_ring_validate, [("file", {})]),
        "involutions": (_cmd_ring_involutions, [("file", {})]),
        "homs": (_cmd_ring_homs, [("source", {}), ("target", {}), _ARG_CAP_SCALE])}),
    "zmod": ("module operations", {
        "validate": (_cmd_zmod_validate, [("file", {})]),
        "enumerate": (_cmd_zmod_enumerate, [("file", {}), _ARG_CAP_SCALE, ("--indecomposable", {
            "action": "store_true",
            "help": "keep only indecomposable modules (irreducible ones always are)"})])}),
    "twocat": ("2-category skeletons", {
        "validate": (_cmd_twocat_validate, [("file", {})]),
        "pi0": (_cmd_twocat_pi0, [("file", {})]),
        "family": (_cmd_twocat_family, [_ARG_P, ("--depth", {"type": int, "required": True})])}),
    "pointed": ("pointed category bookkeeping", {
        "classes": (_cmd_pointed_classes, [_ARG_GROUP, _ARG_FIELD]),
        "braidings": (_cmd_pointed_braidings, [_ARG_P, _ARG_FIELD]),
        "squareclasses": (_cmd_pointed_squareclasses,
                          [("--bound", {"type": int, "required": True})])}),
    "dy": ("deformation cohomology", {
        "dims": (_cmd_dy_dims, [_ARG_GROUP,
                                ("--coeff", {"required": True, "help": "q, fp<p> or cyclo<n>"}),
                                ("--nmax", {"type": int, "default": 4})]),
        "diagnostic": (_cmd_dy_diagnostic,
                       [_ARG_GROUP, ("--coeff", {"required": True})])}),
    "fusion2": ("fusion product tables", {
        "real": (_cmd_fusion2_real, []),
        "ffield": (_cmd_fusion2_ffield, [(name, {"type": int}) for name in ("p", "q", "r")]),
        "pointed": (_cmd_fusion2_pointed, [_ARG_P, ("--zeta", {
            "type": int, "required": True, "help": "exponent of the braiding root"})])}),
}


def build_parser(argv) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="modcat",
        description="Exact bookkeeping for based rings, module classes and fusion products.")
    parser.add_argument("--format", choices=["json", "md"], default="json",
                        help="output format (default json)")
    parser.add_argument("--field", dest="global_field", default=None,
                        help="default field profile code for subcommands that take one")
    parser.add_argument("--seedless", action="store_true",
                        help="accepted for interface stability; output is always deterministic")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, subcommands) in _COMMANDS.items():
        family = sub.add_parser(command, help=help_text)
        if command not in argv:
            continue  # argparse cannot enter a family that argv does not name
        group = family.add_subparsers(dest="subcommand", required=True)
        for name, (func, arguments) in subcommands.items():
            p = group.add_parser(name)
            for argument, keywords in arguments:
                p.add_argument(argument, **keywords)
            p.set_defaults(func=func)
    return parser


def run(argv) -> tuple[CommandResult, int]:
    """Parse and execute; returns the structured result and the exit code."""
    try:
        args = build_parser(argv).parse_args(argv)
        result = args.func(args)
    except ModcatError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        for attr in ("indices", "index", "degree", "size", "guard"):
            if hasattr(exc, attr):
                payload["error"][attr] = getattr(exc, attr)
        usage = isinstance(exc, UsageError)
        result = CommandResult("usage" if usage else "error", payload,
                               f"{'usage error' if usage else 'error'}: {exc}")
    return result, result.exit_code


def render(result: CommandResult, fmt: str) -> str:
    body = dict(result.payload)
    body["status"] = result.status
    if fmt == "md" and result.human_table is not None:
        return result.human_table() if callable(result.human_table) else result.human_table
    return json.dumps(body, indent=2, sort_keys=True)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # --format is global but argparse wants it before the subcommand; accept both
    # positions, and the --format=md spelling, by moving it to the front
    argv = [t for a in argv for t in (a.split("=", 1) if a.startswith("--format=") else [a])]
    fmt = "json"
    if "--format" in argv:
        i = argv.index("--format")
        if i + 1 < len(argv):
            fmt = argv[i + 1]
            argv = argv[i:i + 2] + argv[:i] + argv[i + 2:]
    result, code = run(argv)
    print(render(result, fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())
