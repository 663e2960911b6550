"""The ``fusion2`` commands: the three product tables."""

from .. import fieldprofile, fusion2, groups, ints, pointed
from ..errors import UsageError
from . import CommandResult, _markdown_table


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
    if not ints._is_prime(args.p):
        raise UsageError(f"--p {args.p} is not prime")
    group = groups.FiniteAbelianGroup((args.p,))
    classes = pointed.module_classes(group, fieldprofile.alg_closed(0))
    zeta = pointed.BraidingParam(args.p, args.zeta)
    return _product_table({"p": args.p, "zeta_exponent": args.zeta}, classes,
                          lambda c: c.label,
                          lambda a, b: fusion2.pointed_braided_product(args.p, zeta, a, b))
