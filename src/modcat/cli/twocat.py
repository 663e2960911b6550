"""The ``twocat`` commands, and the skeleton file format."""

from .. import skeleton
from ..errors import UsageError
from . import CommandResult, _json_object, _markdown_table


def _is_json_list(value, kind, depth: int = 1) -> bool:
    """value is a list (of lists, depth deep) of JSON values of type kind."""
    if depth == 0:
        return type(value) is kind
    return isinstance(value, list) and all(_is_json_list(x, kind, depth - 1) for x in value)


def _skeleton_from_obj(obj) -> "skeleton.TwoCatSkeleton":
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
