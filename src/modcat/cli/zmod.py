"""The ``zmod`` commands: module validation and enumeration."""

import os

from .. import basedring, zmodule
from ..errors import ValidationError
from . import CommandResult, _declared_rank, _json_object, _markdown_table, _ring_from_obj


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
