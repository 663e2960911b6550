"""CLI dispatch, file formats, determinism and exit codes."""

import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from modcat import basedring, cli, pointed, zmodule
from modcat.basedring import group_ring
from modcat.cli import main, render, run
from modcat.errors import UsageError
from modcat.fields import CYCLOTOMIC_GUARD, PRIME_TEST_GUARD

DATA = Path(__file__).resolve().parent.parent / "data"


def z2_ring_text(**changes):
    """data/z2.ring.json as JSON text, with the given keys replaced."""
    ring = {"rank": 2, "labels": ["e", "g"], "mult": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
            "unit": [1, 0], "involution": [0, 1]}
    return json.dumps({**ring, **changes})


def z2_module_text(**changes):
    """A rank-1 module file over data/z2.ring.json, with the given keys replaced."""
    module = {"ring": str(DATA / "z2.ring.json"), "rank": 1, "action": [[[1]], [[1]]]}
    return json.dumps({**module, **changes})


def invoke(argv):
    result, code = run(argv)
    return result, code


def test_ring_validate_fibonacci():
    result, code = invoke(["ring", "validate", str(DATA / "fib.ring.json")])
    assert code == 0
    assert result.payload["weak_based"] is True
    assert result.payload["t_values"] == [1, 1]
    assert "t=(1, 1)" in result.human_table


def test_ring_validate_reports_non_weak_based():
    result, code = invoke(["ring", "validate", str(DATA / "mod_real_objects.ring.json")])
    assert code == 0
    assert result.payload["weak_based"] is False


def test_ring_involutions():
    result, code = invoke(["ring", "involutions", str(DATA / "z3.ring.json")])
    assert code == 0
    assert result.payload["count"] == 1
    assert result.payload["certificates"][0]["involution"] == [0, 2, 1]


def test_ring_homs():
    result, code = invoke(["ring", "homs", str(DATA / "z2.ring.json"),
                           str(DATA / "z2.ring.json")])
    assert code == 0
    assert result.payload["count"] == 2


def test_zmod_validate_regular_module():
    result, code = invoke(["zmod", "validate", str(DATA / "regular_z2.module.json")])
    assert code == 0
    assert result.payload["irreducible"] is True


def test_zmod_validate_reads_the_ring_next_to_the_module(tmp_path, monkeypatch):
    # a relative ring path names the file in the module file's directory,
    # not a file of that name in the working directory
    home, cwd = tmp_path / "home", tmp_path / "cwd"
    for folder in (home, cwd):
        folder.mkdir()
    for name in ("z2.ring.json", "regular_z2.module.json"):
        (home / name).write_text((DATA / name).read_text())
    (cwd / "z2.ring.json").write_text((DATA / "z3.ring.json").read_text())
    monkeypatch.chdir(cwd)
    result, code = invoke(["zmod", "validate", str(home / "regular_z2.module.json")])
    assert code == 0
    assert result.payload["rank"] == 2


def test_zmod_validate_refuses_the_zero_module(tmp_path):
    path = tmp_path / "zero.module.json"
    path.write_text(z2_module_text(rank=0, action=[[], []]))
    result, code = invoke(["zmod", "validate", str(path)])
    assert (code, result.status) == (1, "error")
    assert result.payload["error"] == {
        "type": "ValidationError",
        "message": "rank must be at least 1: a module needs a nonempty basis"}


def test_zmod_validate_is_exact_past_64_bits(tmp_path, capsys):
    # b acting by [[0, 2^64 + 1], [1, 0]] squares to (2^64 + 1) I: the law
    # b b = 1 holds modulo 2^64 only, and the exact check refuses it
    path = tmp_path / "wide.module.json"
    path.write_text(z2_module_text(rank=2, action=[[[1, 0], [0, 1]], [[0, 2**64 + 1], [1, 0]]]))
    assert main(["zmod", "validate", str(path)]) == 1
    out, err = capsys.readouterr()
    error = json.loads(out)["error"]
    assert (error["type"], error["indices"]) == ("ActionLawFails", [1, 1])
    assert "Traceback" not in out + err


def test_zmod_enumerate():
    result, code = invoke(["zmod", "enumerate", str(DATA / "z2.ring.json")])
    assert code == 0
    assert result.payload["count"] == 2
    ranks = [m["rank"] for m in result.payload["modules"]]
    assert ranks == [1, 2]


def test_zmod_enumerate_indecomposable_filter_is_noop():
    plain, _ = invoke(["zmod", "enumerate", str(DATA / "z3.ring.json")])
    filtered, _ = invoke(["zmod", "enumerate", str(DATA / "z3.ring.json"),
                          "--indecomposable"])
    assert plain.payload == filtered.payload


def test_twocat_pi0():
    result, code = invoke(["twocat", "pi0", str(DATA / "mod_real.skeleton.json")])
    assert code == 0
    assert result.payload["num_components"] == 1
    assert result.payload["num_simples"] == 3
    assert result.payload["is_connected"] is True


def test_twocat_family():
    result, code = invoke(["twocat", "family", "--p", "2", "--depth", "5"])
    assert code == 0
    assert result.payload["num_simples"] == 5
    assert result.payload["num_components"] == 1


def test_pointed_classes():
    result, code = invoke(["pointed", "classes", "--group", "2,2", "--field", "ac0"])
    assert code == 0
    assert result.payload["count"] == 6
    assert result.payload["separable_count"] == 6


def test_pointed_braidings_and_squareclasses():
    result, _ = invoke(["pointed", "braidings", "--p", "3", "--field", "ac0"])
    assert result.payload["count"] == 3
    result, _ = invoke(["pointed", "squareclasses", "--bound", "10"])
    assert result.payload["witnesses"] == [1, 2, 3, 5, 6, 7, 10]


def test_squareclasses_refuses_above_its_guard(capsys):
    from modcat.pointed import SQUARE_CLASS_GUARD
    bound = SQUARE_CLASS_GUARD + 1
    assert main(["pointed", "squareclasses", "--bound", str(bound)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "SizeGuardExceeded"
    assert (error["size"], error["guard"]) == (bound, SQUARE_CLASS_GUARD)


def test_dy_dims():
    result, code = invoke(["dy", "dims", "--group", "3", "--coeff", "fp3", "--nmax", "4"])
    assert code == 0
    assert result.payload["h_dims"] == [1, 1, 1, 1]
    result, _ = invoke(["dy", "dims", "--group", "3", "--coeff", "q", "--nmax", "4"])
    assert result.payload["h_dims"] == [1, 0, 0, 0]


def test_dy_diagnostic():
    result, code = invoke(["dy", "diagnostic", "--group", "2", "--coeff", "fp2"])
    assert code == 0
    assert result.payload["consistent_with_separability"] is False


def test_dy_diagnostic_beyond_order_seven():
    # two cyclic factors divisible by 3: dim H^n = n + 1 over F_3
    result, code = invoke(["dy", "diagnostic", "--group", "3,3", "--coeff", "fp3"])
    assert code == 0
    assert (result.payload["h2_dim"], result.payload["h3_dim"]) == (3, 4)


def test_cyclotomic_guard_reports_size_and_guard(capsys):
    n = CYCLOTOMIC_GUARD + 1
    start = time.perf_counter()
    assert main(["dy", "dims", "--group", "2", "--coeff", f"cyclo{n}", "--nmax", "2"]) == 1
    assert time.perf_counter() - start < 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "SizeGuardExceeded"
    assert (error["size"], error["guard"]) == (n, CYCLOTOMIC_GUARD)


def test_group_1_is_the_trivial_group():
    result, code = invoke(["dy", "dims", "--group", "1", "--coeff", "q", "--nmax", "4"])
    assert code == 0
    assert (result.payload["cochain_dims"], result.payload["h_dims"]) == ([1] * 5, [1, 0, 0, 0])
    result, code = invoke(["dy", "diagnostic", "--group", "1", "--coeff", "fp2"])
    assert code == 0
    assert (result.payload["h2_dim"], result.payload["h3_dim"],
            result.payload["consistent_with_separability"]) == (0, 0, True)
    result, code = invoke(["pointed", "classes", "--group", "1", "--field", "ac0"])
    assert code == 0
    assert [c["label"] for c in result.payload["classes"]] == ["Vect(1)"]
    for text in ["1,2", "0", ""]:
        assert invoke(["dy", "dims", "--group", text, "--coeff", "q"])[1] == 2


def test_dy_guard_reports_size_and_guard():
    from modcat.dy import SIZE_GUARD
    result, code = invoke(["dy", "diagnostic", "--group", "16", "--coeff", "q"])
    assert code == 1
    error = result.payload["error"]
    assert error["type"] == "SizeGuardExceeded"
    assert (error["size"], error["guard"]) == (344_864, SIZE_GUARD)


def test_dy_guard_refuses_a_large_cyclic_group_at_once(capsys):
    # the identity functor's order check is one product per coordinate, not
    # |G| group additions, so the size guard answers first
    from modcat.dy import SIZE_GUARD
    start = time.perf_counter()
    assert main(["dy", "diagnostic", "--group", "10000000", "--coeff", "q"]) == 1
    assert time.perf_counter() - start < 5
    out, err = capsys.readouterr()
    error = json.loads(out)["error"]
    assert error["type"] == "SizeGuardExceeded"
    assert error["guard"] == SIZE_GUARD
    assert "Traceback" not in out + err


def test_fusion2_real():
    result, code = invoke(["fusion2", "real"])
    assert code == 0
    table = result.payload["table"]
    assert table["COMPLEXIFICATION x COMPLEXIFICATION"] == \
        ["COMPLEXIFICATION", "COMPLEXIFICATION"]
    assert table["QUATERNION x QUATERNION"] == ["BASE"]


def test_fusion2_ffield_flags_discrepancy():
    result, code = invoke(["fusion2", "ffield", "2", "3", "2"])
    assert code == 0
    assert result.payload["summands"] == ["FINITE_EXT(6)"]
    assert result.payload["r_copies_rule_holds"] is False


def test_fusion2_pointed_table():
    result, code = invoke(["fusion2", "pointed", "--p", "3", "--zeta", "1"])
    assert code == 0
    assert result.payload["table"]["Vect x Vect"] == ["Vect(Z/3)"]


@pytest.mark.parametrize("zeta", range(5))
def test_fusion2_pointed_p_5_table_matches_the_closed_form(zeta):
    # Vect x Vect is p copies of Vect at the trivial braiding (zeta^0) and one
    # Vect(Z/p) otherwise; Vect x Vect(Z/p) = Vect; Vect(Z/p) x Vect(Z/p) = Vect(Z/p)
    result, code = invoke(["fusion2", "pointed", "--p", "5", "--zeta", str(zeta)])
    assert code == 0
    unit = "Vect(Z/5)"
    assert result.payload["table"] == {
        "Vect x Vect": ["Vect"] * 5 if zeta == 0 else [unit],
        f"Vect x {unit}": ["Vect"],
        f"{unit} x Vect": ["Vect"],
        f"{unit} x {unit}": [unit],
    }


@pytest.mark.parametrize("p", [4, 6, 9])
def test_fusion2_pointed_non_prime_is_a_usage_error(capsys, p):
    assert main(["fusion2", "pointed", "--p", str(p), "--zeta", "1"]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {"type": "UsageError", "message": f"--p {p} is not prime"}
    assert "Traceback" not in out + err


def test_fusion2_pointed_prime_outside_the_table_is_unsupported(capsys):
    assert main(["fusion2", "pointed", "--p", "7", "--zeta", "1"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "status": "error",
        "error": {"type": "UnsupportedPrime", "message": "supported primes are 2, 3, 5 (got 7)"}}


@pytest.mark.parametrize("command", ["pi0", "validate"])
@pytest.mark.parametrize("text,message", [
    ("[1, 2]", "a skeleton must be a JSON object, not list"),
    ('{"simples": ["a"], "hom_nonzero": [[1]]}', "hom_nonzero must be rows of true or false"),
    ('{"simples": ["a", "b"], "hom_nonzero": [[true, false], [false, "yes"]]}',
     "hom_nonzero must be rows of true or false"),
    ('{"simples": ["a"], "hom_nonzero": [true]}', "hom_nonzero must be rows of true or false"),
    ('{"simples": 5, "hom_nonzero": []}', "simples must be a list of strings"),
    ('{"simples": "ab", "hom_nonzero": [[true, false], [false, true]]}',
     "simples must be a list of strings"),
    ('{"simples": ["a"], "hom_nonzero": [[true]], "max_end_dim": "a"}',
     "max_end_dim must be a list of ints"),
    ('{"simples": ["a"], "hom_nonzero": [[true]], "hom_dims": [[1.5]]}',
     "hom_dims must be rows of ints"),
], ids=["list", "int-entry", "string-entry", "flat-hom-nonzero", "int-simples",
        "string-simples", "string-max-end-dim", "float-hom-dims"])
def test_skeleton_loader_checks_types(tmp_path, capsys, command, text, message):
    path = tmp_path / "bad.skeleton.json"
    path.write_text(text)
    assert main(["twocat", command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {"type": "UsageError", "message": message}
    assert "Traceback" not in out + err


@pytest.mark.parametrize("text,message", [
    ("[1, 2]", "a module must be a JSON object, not list"),
    (json.dumps({"ring": str(DATA / "z2.ring.json"), "rank": 1}),
     "a module needs the keys ring, rank, action; missing: action"),
    (json.dumps({"action": [[[1]], [[1]]]}),
     "a module needs the keys ring, rank, action; missing: ring, rank"),
    (json.dumps({"ring": str(DATA / "z2.ring.json"), "action": [[[1]], [[1]]]}),
     "a module needs the keys ring, rank, action; missing: rank"),
    (z2_module_text(rank="1"), "a module's rank must be a non-negative int, not '1'"),
    (z2_module_text(ring=5), "a ring must be a JSON object, not int"),
], ids=["list", "no-action", "no-ring-no-rank", "no-rank", "string-rank", "int-ring"])
def test_module_loader_names_the_problem(tmp_path, capsys, text, message):
    path = tmp_path / "bad.module.json"
    path.write_text(text)
    assert main(["zmod", "validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {"type": "UsageError", "message": message}
    assert "Traceback" not in out + err


def test_validation_error_exits_one_with_named_axiom(tmp_path):
    bad = tmp_path / "bad_ring.json"
    bad.write_text(json.dumps({
        "rank": 2, "labels": ["e", "b"], "unit": [1, 1],
        "mult": [[[1, 0], [0, 1]], [[0, 1], [0, 1]]]}))
    result, code = invoke(["ring", "validate", str(bad)])
    assert code == 1
    assert result.payload["error"]["type"] == "UnitLawFails"
    assert result.payload["error"]["index"] == 0  # (1 + b) e = e + b


def test_non_associative_ring_names_the_first_failing_quadruple(tmp_path, capsys):
    # Z/3 with g g = 2 g^2: (g g) g = 2e = g (g g), but (g g) g^2 = 2g while
    # g (g g^2) = g, so (1, 1, 2) is the first failing triple and b_1 its
    # first differing coordinate
    bad = tmp_path / "non_associative.ring.json"
    bad.write_text(json.dumps({
        "labels": ["e", "g", "g^2"], "unit": [1, 0, 0],
        "mult": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                 [[0, 1, 0], [0, 0, 2], [1, 0, 0]],
                 [[0, 0, 1], [1, 0, 0], [0, 1, 0]]]}))
    assert main(["ring", "validate", str(bad)]) == 1
    out, err = capsys.readouterr()
    error = json.loads(out)["error"]
    assert (error["type"], error["indices"]) == ("NotAssociative", [1, 1, 2, 1])
    assert "Traceback" not in out + err


def test_usage_error_exits_two():
    result, code = run(["no-such-command"])
    assert code == 2
    assert result.payload["error"]["type"] == "UsageError"
    assert "invalid choice: 'no-such-command'" in result.payload["error"]["message"]


def _parse(parser, argv):
    """What parsing argv gives: the arguments, the usage message, or the exit
    code and the text printed (help)."""
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            return vars(parser.parse_args(argv))
    except UsageError as exc:
        return str(exc)
    except SystemExit as exc:
        return exc.code, printed.getvalue()


PARSE_TOKENS = sorted({*cli._COMMANDS, *(name for _, subcommands in cli._COMMANDS.values()
                                         for name in subcommands),
                       "--help", "-h", "--format", "md", "--field", "ac0", "--group", "2,2",
                       "--p", "3", "--zeta", "1", "--cap-scale", "x", "data/z2.ring.json",
                       "--bogus", "--"})


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argv=st.lists(st.sampled_from(PARSE_TOKENS), max_size=6))
def test_the_parser_built_for_an_argv_parses_it_as_the_full_parser(argv):
    # only the families argv names get their subcommand parsers; arguments,
    # usage messages and help text must not change
    assert _parse(cli.build_parser(argv), argv) == _parse(cli.build_parser(list(cli._COMMANDS)), argv)


@pytest.mark.parametrize("argv", [[], ["-h"], ["ring", "-h"], ["dy", "dims", "--help"],
                                  ["zmod"], ["zmod", "bogus"], ["--field", "ring", "pointed"],
                                  *[case["argv"] for case in json.loads(
                                      (DATA.parent / "perfbench" / "cli_golden.json").read_text())]])
def test_the_parser_built_for_a_known_argv_parses_it_as_the_full_parser(argv):
    assert _parse(cli.build_parser(argv), argv) == _parse(cli.build_parser(list(cli._COMMANDS)), argv)


def test_render_json_is_sorted_and_exact():
    result, _ = invoke(["pointed", "squareclasses", "--bound", "6"])
    text = render(result, "json")
    parsed = json.loads(text)
    assert parsed["witnesses"] == [1, 2, 3, 5, 6]
    assert list(parsed.keys()) == sorted(parsed.keys())


def test_cli_process_round_trip_and_determinism():
    # two consecutive runs must produce byte-identical output
    cmd = [sys.executable, "-m", "modcat", "pointed", "classes",
           "--group", "2,4", "--field", "ac0"]
    first = subprocess.run(cmd, capture_output=True, cwd=str(DATA.parent))
    second = subprocess.run(cmd, capture_output=True, cwd=str(DATA.parent))
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty


def test_every_shipped_example_file_validates():
    for path in sorted(DATA.glob("*.ring.json")):
        _, code = invoke(["ring", "validate", str(path)])
        assert code == 0, path
    for path in sorted(DATA.glob("*.module.json")):
        _, code = invoke(["zmod", "validate", str(path)])
        assert code == 0, path
    for path in sorted(DATA.glob("*.skeleton.json")):
        _, code = invoke(["twocat", "validate", str(path)])
        assert code == 0, path


def test_markdown_format():
    result, _ = invoke(["zmod", "enumerate", str(DATA / "z2.ring.json")])
    md = render(result, "md")
    assert md.startswith("| # | rank |")


SHORT_CELL_RING = z2_ring_text(mult=[[[1, 0], [0]], [[0, 1], [1, 0]]])


@pytest.mark.parametrize("argv,file_text,message", [
    (["fusion2", "ffield", "2", "12", "0"], None, "extension degrees must be positive"),
    (["fusion2", "ffield", "4", "2", "2"], None, "4 is not prime"),
    (["dy", "dims", "--group", "0", "--coeff", "q"], None, "cyclic orders must be at least 2"),
    (["dy", "dims", "--group", "2", "--coeff", "fp4"], None, "4 is not prime"),
    (["dy", "dims", "--group", "2", "--coeff", "q", "--nmax", "0"], None,
     "n_max must be at least 1"),
    (["dy", "dims", "--group", "2", "--coeff", "q", "--nmax", "-1"], None,
     "n_max must be at least 1"),
    (["dy", "dims", "--group", "2", "--coeff", "fpx"], None, "unknown field code: 'fpx'"),
    (["pointed", "classes", "--group", "2", "--field", "acx"], None,
     "unknown field profile code: 'acx'"),
    (["pointed", "classes", "--group", "x"], None,
     "--group takes comma-separated invariant factors, not 'x'"),
    (["ring", "validate"], '{"rank": 1, "unit": [1]}',
     "a ring needs the keys mult, unit; missing: mult"),
    (["ring", "validate"], '{"mult": [[[1]]], "unit": [1]}', "a ring needs its labels or its rank"),
    (["twocat", "pi0"], '{"simples": ["a"]}',
     "a skeleton needs the keys simples, hom_nonzero; missing: hom_nonzero"),
    (["ring", "validate"], "not json",
     "{tmp}/ring.json: Expecting value: line 1 column 1 (char 0)"),
    (["ring", "validate", "{tmp}/missing.json"], None,
     "{tmp}/missing.json: No such file or directory"),
    (["ring", "validate", "{tmp}"], None, "{tmp}: Is a directory"),
    (["twocat", "family", "--p", "4", "--depth", "3"], None, "4 is not prime"),
    (["twocat", "family", "--p", "1", "--depth", "3"], None, "1 is not prime"),
    (["twocat", "family", "--p", "-3", "--depth", "3"], None, "-3 is not prime"),
    (["zmod", "enumerate", str(DATA / "z2.ring.json"), "--cap-scale", "0"], None,
     "cap_scale must be at least 1, got 0"),
    (["zmod", "enumerate", str(DATA / "z2.ring.json"), "--cap-scale", "-1"], None,
     "cap_scale must be at least 1, got -1"),
    (["ring", "homs", str(DATA / "z2.ring.json"), str(DATA / "z2.ring.json"),
      "--cap-scale", "0"], None, "cap_scale must be at least 1, got 0"),
    (["ring", "validate"], "[1, 2]", "a ring must be a JSON object, not list"),
    (["ring", "validate"], SHORT_CELL_RING, "mult must be 2 x 2 x 2 nested lists"),
    (["ring", "homs", str(DATA / "z2.ring.json")], SHORT_CELL_RING,
     "mult must be 2 x 2 x 2 nested lists"),
    (["zmod", "enumerate"], SHORT_CELL_RING, "mult must be 2 x 2 x 2 nested lists"),
    (["ring", "validate"], z2_ring_text(mult=[[[1, 0], [0, 1.5]], [[0, 1], [1, 0]]]),
     "mult[0][1] must be a list of ints, not [0, 1.5]"),
    (["ring", "validate"], z2_ring_text(mult=[[[1, 0], [0, True]], [[0, 1], [1, 0]]]),
     "mult[0][1] must be a list of ints, not [0, True]"),
    (["ring", "validate"], z2_ring_text(unit=[True, 0]),
     "unit must be a list of ints, not [True, 0]"),
    (["ring", "validate"], z2_ring_text(involution=[0, "1"]),
     "involution must be a list of ints, not [0, '1']"),
    (["ring", "validate"], z2_ring_text(labels=5), "labels must be a list of strings, not 5"),
    (["ring", "validate"], z2_ring_text(labels=[["a"]]),
     "labels must be a list of strings, not [['a']]"),
    (["ring", "validate"], '{"rank": "a", "mult": [], "unit": []}',
     "a ring's rank must be a non-negative int, not 'a'"),
    (["ring", "validate"], z2_ring_text(rank=2.5),
     "a ring's rank must be a non-negative int, not 2.5"),
    (["zmod", "validate"], z2_module_text(action=[[[1]], [[1.5]]]),
     "action[1][0] must be a list of ints, not [1.5]"),
    (["zmod", "validate"], z2_module_text(action=[[[1]], [[False]]]),
     "action[1][0] must be a list of ints, not [False]"),
    (["zmod", "validate"], z2_module_text(action=[[[1]]]),
     "action must hold one matrix per ring basis index, 2 in all"),
    (["zmod", "validate"], z2_module_text(action=[[[1, 0]], [[0, 1]]]),
     "action[0] must be a 1 x 1 matrix"),
    # Z/p braidings are counted by p-th roots of unity for a prime p only: in
    # characteristic 2 the only 4th root of unity is 1
    (["pointed", "braidings", "--p", "4", "--field", "ac2"], None, "4 is not prime"),
    (["pointed", "braidings", "--p", "6", "--field", "ac3"], None, "6 is not prime"),
    (["pointed", "braidings", "--p", "-2"], None, "-2 is not prime"),
    (["pointed", "braidings", "--p", "0"], None, "0 is not prime"),
    # argparse's own errors
    (["no-such-command"], None, "modcat: argument command: invalid choice: 'no-such-command' "
     "(choose from 'ring', 'zmod', 'twocat', 'pointed', 'dy', 'fusion2')"),
    (["ring"], None, "modcat ring: the following arguments are required: subcommand"),
    (["fusion2", "pointed", "--p", "3"], None,
     "modcat fusion2 pointed: the following arguments are required: --zeta"),
    (["fusion2", "real", "--bogus"], None, "modcat: unrecognized arguments: --bogus"),
    (["twocat", "family", "--p", "x", "--depth", "3"], None,
     "modcat twocat family: argument --p: invalid int value: 'x'"),
    (["--format", "xml", "fusion2", "real"], None,
     "modcat: argument --format: invalid choice: 'xml' (choose from 'json', 'md')"),
], ids=["ffield-zero-degree", "ffield-not-prime", "dy-zero-order", "dy-bad-field",
        "dy-nmax-0", "dy-nmax-minus-1", "dy-field-code-without-int",
        "profile-code-without-int", "bad-group", "ring-without-mult",
        "ring-without-rank-or-labels", "skeleton-without-hom-nonzero", "not-json",
        "missing-file", "directory", "family-p-4", "family-p-1", "family-p-minus-3",
        "zmod-cap-scale-0", "zmod-cap-scale-minus-1", "homs-cap-scale-0",
        "ring-not-an-object", "validate-short-cell", "homs-short-cell",
        "enumerate-short-cell", "float-coefficient", "bool-coefficient", "bool-unit",
        "string-involution", "int-labels", "nested-labels", "string-rank", "float-rank",
        "module-float-entry", "module-bool-entry", "module-one-matrix",
        "module-not-square", "braidings-p-4-char-2", "braidings-p-6-char-3",
        "braidings-p-minus-2", "braidings-p-0", "unknown-command", "missing-subcommand",
        "missing-argument", "unrecognized-argument", "bad-int", "bad-format"])
def test_bad_values_and_files_are_usage_errors(tmp_path, capsys, argv, file_text, message):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if file_text is not None:
        path = tmp_path / "ring.json"
        path.write_text(file_text)
        argv = argv + [str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    error = json.loads(out)["error"]
    assert error == {"type": "UsageError", "message": message.format(tmp=tmp_path)}
    assert "Traceback" not in out + err


@pytest.mark.parametrize("argv", [
    ["fusion2", "real", "--format", "md"],
    ["fusion2", "real", "--format=md"],
    ["--format=md", "fusion2", "real"],
])
def test_format_accepted_in_either_position(capsys, argv):
    assert main(["--format", "md", "fusion2", "real"]) == 0
    expected, _ = capsys.readouterr()
    assert expected.startswith("| left | right | product |")
    assert main(argv) == 0
    assert capsys.readouterr()[0] == expected


def test_guard_error_reports_size_and_guard():
    result, code = invoke(["fusion2", "ffield", "2", "2", "40"])
    assert code == 1
    assert result.payload["error"]["type"] == "SizeGuardExceeded"
    assert result.payload["error"]["size"] == 80
    assert result.payload["error"]["guard"] == 64
    # the guard bounds p * r only: the mirrored input is admitted
    result, code = invoke(["fusion2", "ffield", "2", "40", "2"])
    assert code == 0
    assert result.payload["summands"] == ["FINITE_EXT(40)"] * 2


@pytest.mark.parametrize("argv", [
    ["ring", "validate", "{ring}"],
    ["ring", "homs", str(DATA / "z2.ring.json"), "{ring}"],
    ["zmod", "enumerate", "{ring}"],
], ids=["validate", "homs-into", "enumerate"])
def test_rank_zero_ring_is_refused(tmp_path, capsys, argv):
    # the unit is a nonnegative combination of basis elements with nonempty
    # support, so a based ring has rank at least 1
    path = tmp_path / "empty.ring.json"
    path.write_text('{"labels": [], "mult": [], "unit": []}')
    assert main([arg.format(ring=path) for arg in argv]) == 1
    assert json.loads(capsys.readouterr().out)["error"] == {
        "type": "ValidationError",
        "message": "rank must be at least 1: the unit needs a nonempty support"}


def test_ring_file_with_labels_needs_no_rank(tmp_path):
    path = tmp_path / "unit.ring.json"
    path.write_text(json.dumps({"labels": ["e"], "mult": [[[1]]], "unit": [1]}))
    result, code = invoke(["ring", "validate", str(path)])
    assert code == 0
    assert result.payload["labels"] == ["e"]


def test_ring_file_rank_must_match_its_labels(tmp_path):
    path = tmp_path / "z2.ring.json"
    path.write_text(z2_ring_text(rank=3))
    result, code = invoke(["ring", "validate", str(path)])
    assert code == 1
    assert result.payload["error"]["type"] == "ValidationError"
    assert result.payload["error"]["message"] == "declared rank 3 != label count 2"


def group_ring_file(path, orders):
    ring = group_ring(orders)
    path.write_text(json.dumps({"labels": list(ring.labels), "mult": ring.mult,
                                "unit": ring.unit_coeffs}))
    return str(path)


def test_module_search_guard_reports_size_and_guard(tmp_path, capsys, monkeypatch):
    # a small budget refuses Z/3 x Z/3 within milliseconds; the count of work
    # done is deterministic, so a second run reports the same payload
    monkeypatch.setattr(zmodule, "SEARCH_WORK_BUDGET", 1_000)
    path = group_ring_file(tmp_path / "z3xz3.ring.json", [3, 3])
    assert main(["zmod", "enumerate", path]) == 1
    out, err = capsys.readouterr()
    error = json.loads(out)["error"]
    assert error["type"] == "SizeGuardExceeded"
    assert error["guard"] == 1_000 < error["size"]
    assert "Traceback" not in out + err
    assert main(["zmod", "enumerate", path]) == 1
    assert capsys.readouterr()[0] == out


def test_pointed_classes_guards_report_size_and_guard(capsys, monkeypatch):
    # small bounds refuse (Z/2)^4 within milliseconds: first its subgroups'
    # work, then, with that budget back, its 67 subgroups' 270 classes
    argv = ["pointed", "classes", "--group", "2,2,2,2"]
    monkeypatch.setattr(pointed, "SUBGROUP_WORK_BUDGET", 1_000)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    error = json.loads(out)["error"]
    assert error["type"] == "SizeGuardExceeded"
    assert error["guard"] == 1_000 < error["size"]
    assert "Traceback" not in out + err
    monkeypatch.undo()
    monkeypatch.setattr(pointed, "MODULE_CLASS_GUARD", 100)
    assert main(argv) == 1
    error = json.loads(capsys.readouterr()[0])["error"]
    assert (error["type"], error["size"], error["guard"]) == ("SizeGuardExceeded", 270, 100)


def test_ring_validate_certifies_a_rank_13_group_ring(tmp_path):
    result, code = invoke(["ring", "validate", group_ring_file(tmp_path / "z13.ring.json", [13])])
    assert code == 0
    assert result.payload["weak_based"] is True
    assert result.payload["involution"] == [0] + list(range(12, 0, -1))  # g -> g^-1


def test_family_depth_guard_reports_size_and_guard():
    result, code = invoke(["twocat", "family", "--p", "2", "--depth", "257"])
    assert code == 1
    assert result.payload["error"]["type"] == "SizeGuardExceeded"
    assert result.payload["error"]["size"] == 257 ** 3
    assert result.payload["error"]["guard"] == 256 ** 3


def test_family_prime_beyond_the_primality_guard_reports_size_and_guard(capsys):
    p = 3_317_044_064_679_887_385_962_123  # the least prime above PRIME_TEST_GUARD
    assert main(["twocat", "family", "--p", str(p), "--depth", "3"]) == 1
    out, err = capsys.readouterr()
    error = json.loads(out)["error"]
    assert error["type"] == "SizeGuardExceeded"
    assert (error["size"], error["guard"]) == (p, PRIME_TEST_GUARD)
    assert "Traceback" not in out + err


# modcat modules whose bodies a command never runs; a module registered by
# LazyLoader keeps its lazy class until its first attribute access
# each perfbench/cli_golden.json command, in its order, with the library
# modules it executes: those it calls into, and no other
_RING = {"cli", "errors", "basedring", "algebras"}
_POINTED = {"cli", "errors", "fieldprofile", "pointed"}
_FUSION2 = {"cli", "errors", "fields", "fieldprofile", "fusion2", "poly"}
EXECUTED = [
    (["ring", "validate", "data/fib.ring.json"], _RING),
    (["ring", "involutions", "data/z3.ring.json"], _RING),
    (["ring", "homs", "data/z2.ring.json", "data/z2.ring.json"], _RING | {"zmodule"}),
    (["zmod", "validate", "data/regular_z2.module.json"], _RING | {"zmodule"}),
    (["zmod", "enumerate", "data/z2.ring.json"], _RING | {"zmodule"}),
    (["twocat", "pi0", "data/mod_real.skeleton.json"], {"cli", "errors", "skeleton"}),
    (["twocat", "family", "--p", "2", "--depth", "8"], {"cli", "errors", "fields", "skeleton"}),
    (["pointed", "classes", "--group", "2,2", "--field", "ac0"], _POINTED | {"fields"}),
    (["pointed", "braidings", "--p", "3"], _POINTED | {"fields"}),
    (["pointed", "squareclasses", "--bound", "10"], _POINTED),
    (["dy", "dims", "--group", "3", "--coeff", "fp3", "--nmax", "4"],
     _POINTED | {"fields", "linalg", "dy"}),
    (["dy", "diagnostic", "--group", "2", "--coeff", "fp2"],
     _POINTED | {"fields", "linalg", "dy"}),
    (["fusion2", "real"], _FUSION2 | {"algebras", "linalg"}),
    (["fusion2", "ffield", "2", "3", "2"], _FUSION2),
    (["fusion2", "pointed", "--p", "3", "--zeta", "1"],
     _FUSION2 | {"algebras", "linalg", "pointed"}),
]


def test_the_module_table_covers_the_golden_commands():
    golden = json.loads((DATA.parent / "perfbench" / "cli_golden.json").read_text())
    assert [argv for argv, _ in EXECUTED] == [case["argv"] for case in golden]


@pytest.mark.parametrize("argv, executed", EXECUTED,
                         ids=["-".join(argv[:2]) for argv, _ in EXECUTED])
def test_a_command_runs_only_the_modules_it_calls(argv, executed):
    script = (
        "import json, sys, types\n"
        "import modcat.cli\n"
        f"code = modcat.cli.run({argv!r})[1]\n"
        "print(json.dumps({'code': code,\n"
        "                  'loaded': [n for n in ('sympy', 'dataclasses', 'inspect')\n"
        "                             if n in sys.modules],\n"
        "                  'executed': [n.split('.')[1] for n, m in sys.modules.items()\n"
        "                               if n.startswith('modcat.')\n"
        "                               and type(m) is types.ModuleType]}))\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, cwd=str(DATA.parent))
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout)
    assert seen["code"] == 0
    assert seen["loaded"] == []  # each costs start-up time and no command needs it
    assert set(seen["executed"]) == executed


def test_import_modcat_registers_every_submodule_and_serves_the_public_names():
    script = (
        "import sys\n"
        "sys.path.insert(0, 'perfbench')\n"
        "from tracing import TRACED\n"
        "import modcat\n"
        "for module_name, _ in TRACED.values():\n"
        "    assert module_name in sys.modules, module_name\n"
        "    assert getattr(modcat, module_name.split('.')[1]) is sys.modules[module_name]\n"
        "for name in set(modcat.__all__) - {'AlgebraNotAssociative'}:\n"
        "    value = getattr(modcat, name)\n"
        "    # a class or function by its own module, a constant by its class's\n"
        "    assert getattr(sys.modules[value.__module__], name) is value, name\n"
        "assert modcat.AlgebraNotAssociative is modcat.algebras.NotAssociative\n"
        "assert not hasattr(modcat, 'no_such_name')\n"
        "namespace = {}\n"
        "exec('from modcat import *', namespace)\n"
        "assert {n: namespace[n] for n in modcat.__all__} == "
        "{n: getattr(modcat, n) for n in modcat.__all__}\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, cwd=str(DATA.parent))
    assert result.returncode == 0, result.stderr


def test_fusion2_commands_never_import_sympy():
    # factorization over F_p, Q and Q(zeta_n) is done inside modcat
    script = (
        "import sys\n"
        "import modcat.cli\n"
        "for argv in (['fusion2', 'real'], ['fusion2', 'ffield', '2', '4', '6'],\n"
        "             ['fusion2', 'pointed', '--p', '3', '--zeta', '1'],\n"
        "             ['fusion2', 'pointed', '--p', '5', '--zeta', '1']):\n"
        "    assert modcat.cli.run(argv)[1] == 0, argv\n"
        "assert 'sympy' not in sys.modules, 'a fusion2 command loaded sympy'\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, cwd=str(DATA.parent))
    assert result.returncode == 0, result.stderr


# -- fuzzing: every argv and input file meets the exit-code contract -----------

# each subcommand's arguments: a flag, a positional (DEGREE) or a JSON file
# (RING, MODULE, SKELETON) that the test writes
FUZZ_COMMANDS = {
    ("ring", "validate"): ["RING"],
    ("ring", "involutions"): ["RING"],
    ("ring", "homs"): ["RING", "RING", "--cap-scale"],
    ("zmod", "validate"): ["MODULE"],
    ("zmod", "enumerate"): ["RING", "--cap-scale", "--indecomposable"],
    ("twocat", "validate"): ["SKELETON"],
    ("twocat", "pi0"): ["SKELETON"],
    ("twocat", "family"): ["--p", "--depth"],
    ("pointed", "classes"): ["--group", "--field"],
    ("pointed", "braidings"): ["--p", "--field"],
    ("pointed", "squareclasses"): ["--bound"],
    ("dy", "dims"): ["--group", "--coeff", "--nmax"],
    ("dy", "diagnostic"): ["--group", "--coeff"],
    ("fusion2", "real"): [],
    ("fusion2", "ffield"): ["DEGREE", "DEGREE", "DEGREE"],
    ("fusion2", "pointed"): ["--p", "--zeta"],
}
# per argument, small values that run (ranks <= 3, group orders <= 6, --p in
# {2, 3}) and values that are refused; None is a flag that takes no value
FUZZ_VALUES = {
    "--p": (["2", "3"], ["4", "0", "-1", "x"]),
    "--depth": (["1", "6"], ["0", "x"]),
    "--group": (["1", "2", "3", "2,2", "6"], ["2,3", "1,2", "0", "x", "", "2,2,2,2,2,2,2"]),
    "--field": (["ac0", "ac2", "ac3", "rc", "q", "fp3"], ["ac4", "acx", "zz"]),
    "--coeff": (["q", "fp2", "fp3", "cyclo3", "cyclo4"], ["fp4", "cyclo0", "cyclox", "zz"]),
    "--nmax": (["1", "3"], ["0", "-1", "x"]),
    "--bound": (["1", "10"], ["0", "x"]),
    "--zeta": (["0", "1", "2"], ["-1", "5", "x"]),
    "--cap-scale": (["1", "2"], ["0", "x"]),
    "--indecomposable": ([None], [None]),
    "DEGREE": (["2", "3", "1"], ["4", "0", "-1", "x"]),
}
# global flags; not --format md, whose tables are not JSON
FUZZ_PREFIXES = [[], ["--format", "json"], ["--format=json"], ["--seedless"],
                 ["--field", "ac3"], ["--format", "xml"]]
FUZZ_STRAYS = ["--bogus", "extra", "--p", "-x", "ring", "--format", "--cap-scale"]


def _data(name):
    return json.loads((DATA / name).read_text())


FUZZ_FILES = {
    "RING": [_data(name) for name in ("trivial.ring.json", "z2.ring.json", "z3.ring.json",
                                      "fib.ring.json", "mod_real_objects.ring.json")],
    # the module's ring by relative path (written next to it) and inline
    "MODULE": [_data("regular_z2.module.json"),
               {**_data("regular_z2.module.json"), "ring": _data("z2.ring.json")}],
    "SKELETON": [_data("mod_real.skeleton.json"),
                 {**_data("mod_real.skeleton.json"),
                  "hom_dims": [[1, 1, 1], [1, 2, 2], [1, 2, 4]], "max_end_dim": [1, 2, 4]}],
}
FUZZ_SWAPS = [0, 2, -1, 5, None, True, 2.5, "a", "ab", [], [True], [["a"]], {}]


def mutate(draw, value):
    """A copy of the JSON value with one change below the root: at each level
    a key or item is drawn, then dropped, repeated (in a list), swapped for a
    value from FUZZ_SWAPS, or changed one level further down."""
    value = json.loads(json.dumps(value))
    node = value
    while isinstance(node, (dict, list)) and node:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        change = draw(st.sampled_from(["swap", "drop", "down"]
                                      + (["repeat"] if isinstance(node, list) else [])))
        if change == "down" and isinstance(node[key], (dict, list)) and node[key]:
            node = node[key]
            continue
        if change == "drop":
            del node[key]
        elif change == "repeat":
            node.insert(key, node[key])
        else:
            node[key] = draw(st.sampled_from(FUZZ_SWAPS))
        break
    return value


def _rarely(draw) -> bool:
    """True for about one draw in five; the middle of the range, since
    hypothesis draws the ends of a range more often."""
    return draw(st.integers(0, 4)) == 2


@st.composite
def fuzz_argv(draw, folder):
    """An argv for one subcommand with drawn values and files (each file a
    shipped example with up to two mutations, sometimes cut short), sometimes
    broken further: an argument dropped, a stray token inserted, a global
    flag put in front."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    argv = list(command)
    for name in FUZZ_COMMANDS[command]:
        if name in FUZZ_FILES:
            value = draw(st.sampled_from(FUZZ_FILES[name]))
            for _ in range(draw(st.sampled_from([1, 1, 0, 2]))):
                value = mutate(draw, value)
            text = json.dumps(value)
            path = folder / f"{len(argv)}.{name.lower()}.json"
            path.write_text(text[:-1] if _rarely(draw) else text)  # cut short: not JSON
            argv.append(str(path))
        else:
            value = draw(st.sampled_from(FUZZ_VALUES[name][_rarely(draw)]))
            argv += [value] if name == "DEGREE" else [name] if value is None else [name, value]
    if len(argv) > 2 and _rarely(draw):
        del argv[draw(st.integers(2, len(argv) - 1))]
    if _rarely(draw):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(FUZZ_STRAYS)))
    return (draw(st.sampled_from(FUZZ_PREFIXES)) if _rarely(draw) else []) + argv


def test_fuzzing_covers_every_subcommand():
    assert set(FUZZ_COMMANDS) == {(command, name) for command, (_, subcommands)
                                  in cli._COMMANDS.items() for name in subcommands}


@pytest.fixture
def fuzz_folder(tmp_path, monkeypatch):
    # a small work budget refuses a mutated ring's search, or (Z/2)^7's
    # subgroups, in milliseconds
    monkeypatch.setattr(zmodule, "SEARCH_WORK_BUDGET", 20_000)
    monkeypatch.setattr(basedring, "SEARCH_WORK_BUDGET", 20_000)
    monkeypatch.setattr(pointed, "SUBGROUP_WORK_BUDGET", 20_000)
    monkeypatch.setattr(pointed, "MODULE_CLASS_GUARD", 1_000)
    (tmp_path / "z2.ring.json").write_text((DATA / "z2.ring.json").read_text())
    return tmp_path


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_argv_and_files_keep_the_exit_code_contract(fuzz_folder, capsys, data):
    argv = data.draw(fuzz_argv(fuzz_folder), label="argv")
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    body = json.loads(out)
    assert body["status"] == {0: "ok", 1: "error", 2: "usage"}[code]
    assert (code == 2) == (body.get("error", {}).get("type") == "UsageError")
    assert "Traceback" not in out + err
