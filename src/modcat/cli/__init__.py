"""Command-line front end and file formats.

Subcommands mirror the library modules.  This module holds the parser, the
driver and the loaders that several families share; a family's handlers are in
``modcat.cli.<family>``, imported only when :func:`run` dispatches to it, so a
command compiles no other family's code (the README lists what each runs):

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
import sys
from collections.abc import Callable
from importlib import import_module

from .. import basedring, groups
from ..errors import ModcatError, UsageError, ValidationError, record


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


def _parse_group(text: str) -> groups.FiniteAbelianGroup:
    try:
        orders = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--group takes comma-separated invariant factors, not {text!r}") from None
    return groups.FiniteAbelianGroup(() if orders == (1,) else orders)  # 1: the trivial group


def _markdown_table(headers, rows) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


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

# command -> (help, {subcommand: (handler, [(argument, add_argument keywords)])}), the
# handler named by its function in the family's module, modcat.cli.<command>
_COMMANDS = {
    "ring": ("based ring operations", {
        "validate": ("_cmd_ring_validate", [("file", {})]),
        "involutions": ("_cmd_ring_involutions", [("file", {})]),
        "homs": ("_cmd_ring_homs", [("source", {}), ("target", {}), _ARG_CAP_SCALE])}),
    "zmod": ("module operations", {
        "validate": ("_cmd_zmod_validate", [("file", {})]),
        "enumerate": ("_cmd_zmod_enumerate", [("file", {}), _ARG_CAP_SCALE, ("--indecomposable", {
            "action": "store_true",
            "help": "keep only indecomposable modules (irreducible ones always are)"})])}),
    "twocat": ("2-category skeletons", {
        "validate": ("_cmd_twocat_validate", [("file", {})]),
        "pi0": ("_cmd_twocat_pi0", [("file", {})]),
        "family": ("_cmd_twocat_family", [_ARG_P, ("--depth", {"type": int, "required": True})])}),
    "pointed": ("pointed category bookkeeping", {
        "classes": ("_cmd_pointed_classes", [_ARG_GROUP, _ARG_FIELD]),
        "braidings": ("_cmd_pointed_braidings", [_ARG_P, _ARG_FIELD]),
        "squareclasses": ("_cmd_pointed_squareclasses",
                          [("--bound", {"type": int, "required": True})])}),
    "dy": ("deformation cohomology", {
        "dims": ("_cmd_dy_dims", [_ARG_GROUP,
                                  ("--coeff", {"required": True, "help": "q, fp<p> or cyclo<n>"}),
                                  ("--nmax", {"type": int, "default": 4})]),
        "diagnostic": ("_cmd_dy_diagnostic",
                       [_ARG_GROUP, ("--coeff", {"required": True})])}),
    "fusion2": ("fusion product tables", {
        "real": ("_cmd_fusion2_real", []),
        "ffield": ("_cmd_fusion2_ffield", [(name, {"type": int}) for name in ("p", "q", "r")]),
        "pointed": ("_cmd_fusion2_pointed", [_ARG_P, ("--zeta", {
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
    # argparse enters the family that argv names first, and then lists no other;
    # it cannot enter a family that argv does not name
    for command in argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS:
        help_text, subcommands = _COMMANDS[command]
        family = sub.add_parser(command, help=help_text)
        if command not in argv:
            continue
        group = family.add_subparsers(dest="subcommand", required=True)
        for name, (func, arguments) in subcommands.items():
            p = group.add_parser(name)
            for argument, keywords in arguments:
                p.add_argument(argument, **keywords)
            p.set_defaults(func=func)
    return parser


def _run(argv, fmt: str) -> tuple[CommandResult, str]:
    """The result of argv, and the format to render it in: the parsed one, or
    fmt when parsing fails.  The family's handlers are imported here."""
    try:
        args = build_parser(argv).parse_args(argv)
        fmt = args.format
        result = getattr(import_module(f"{__name__}.{args.command}"), args.func)(args)
    except ModcatError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        for attr in ("indices", "index", "degree", "size", "guard"):
            if hasattr(exc, attr):
                payload["error"][attr] = getattr(exc, attr)
        usage = isinstance(exc, UsageError)
        result = CommandResult("usage" if usage else "error", payload,
                               f"{'usage error' if usage else 'error'}: {exc}")
    return result, fmt


def run(argv) -> tuple[CommandResult, int]:
    """Parse and execute; returns the structured result and the exit code."""
    result = _run(argv, "json")[0]
    return result, result.exit_code


def render(result: CommandResult, fmt: str) -> str:
    body = dict(result.payload)
    body["status"] = result.status
    if fmt == "md" and result.human_table is not None:
        return result.human_table() if callable(result.human_table) else result.human_table
    return json.dumps(body, indent=2, sort_keys=True)


def _is_format(name: str) -> bool:
    """Whether argparse reads the option name as --format: the whole name, or
    a prefix of it from --fo on (--f is also a prefix of --field)."""
    return len(name) >= 4 and "--format".startswith(name)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # --format is global but argparse wants it before the subcommand; accept it
    # anywhere, in every spelling argparse takes (--fo md, --form=md, ...), by
    # moving one to the front: the first literal --format, else the first
    # prefix.  The format scanned here renders a usage error met while parsing;
    # otherwise the parsed one is used
    argv = [t for a in argv for t in (a.split("=", 1) if _is_format(a.split("=")[0]) else [a])]
    named = [i for i, a in enumerate(argv) if _is_format(a)]
    fmt = "json"
    if named:
        i = argv.index("--format") if "--format" in argv else named[0]
        if i + 1 < len(argv):
            fmt = argv[i + 1]
            argv = argv[i:i + 2] + argv[:i] + argv[i + 2:]
    result, fmt = _run(argv, fmt)
    print(render(result, fmt))
    return result.exit_code
