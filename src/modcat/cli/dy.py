"""The ``dy`` commands: DY cohomology dimensions and the separability diagnostic."""

from .. import dy, fields
from . import CommandResult, _markdown_table, _parse_group


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
