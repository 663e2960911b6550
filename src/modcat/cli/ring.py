"""The ``ring`` commands: validation, weak-based involutions and ring homs."""

from .. import basedring, zmodule
from . import CommandResult, _markdown_table, _ring_from_obj


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
