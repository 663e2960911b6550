"""The ``pointed`` commands: module classes, braidings and square classes."""

from .. import fieldprofile, pointed
from . import CommandResult, _markdown_table, _parse_group


def _field_code(args) -> str:
    return args.field or getattr(args, "global_field", None) or "ac0"


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
