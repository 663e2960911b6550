"""CLI dispatch, file formats, determinism and exit codes."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from modcat import zmodule
from modcat.basedring import group_ring
from modcat.cli import main, render, run
from modcat.fields import PRIME_TEST_GUARD

DATA = Path(__file__).resolve().parent.parent / "data"


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
    assert json.loads(out)["error"] == {"type": "ValueError", "message": f"--p {p} is not prime"}
    assert "Traceback" not in out + err


def test_fusion2_pointed_prime_outside_the_table_is_unsupported(capsys):
    assert main(["fusion2", "pointed", "--p", "7", "--zeta", "1"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "status": "error",
        "error": {"type": "UnsupportedPrime", "message": "supported primes are 2, 3, 5 (got 7)"}}


@pytest.mark.parametrize("command", ["pi0", "validate"])
@pytest.mark.parametrize("text,message", [
    ("[1, 2]", "a skeleton must be a JSON object, not list"),
    ('{"simples": ["a"], "hom_nonzero": [[1]]}', "hom_nonzero entries must be true or false"),
    ('{"simples": ["a", "b"], "hom_nonzero": [[true, false], [false, "yes"]]}',
     "hom_nonzero entries must be true or false"),
], ids=["list", "int-entry", "string-entry"])
def test_skeleton_loader_checks_types(tmp_path, capsys, command, text, message):
    path = tmp_path / "bad.skeleton.json"
    path.write_text(text)
    assert main(["twocat", command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {"type": "ValueError", "message": message}
    assert "Traceback" not in out + err


@pytest.mark.parametrize("text,message", [
    ("[1, 2]", "a module must be a JSON object, not list"),
    (json.dumps({"ring": str(DATA / "z2.ring.json"), "rank": 1}),
     "a module needs the keys ring, rank, action; missing: action"),
    (json.dumps({"action": [[[1]], [[1]]]}),
     "a module needs the keys ring, rank, action; missing: ring, rank"),
    (json.dumps({"ring": str(DATA / "z2.ring.json"), "action": [[[1]], [[1]]]}),
     "a module needs the keys ring, rank, action; missing: rank"),
], ids=["list", "no-action", "no-ring-no-rank", "no-rank"])
def test_module_loader_names_the_problem(tmp_path, capsys, text, message):
    path = tmp_path / "bad.module.json"
    path.write_text(text)
    assert main(["zmod", "validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out)["error"] == {"type": "ValueError", "message": message}
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
    with pytest.raises(SystemExit) as info:
        run(["no-such-command"])
    assert info.value.code == 2


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


def z2_ring_text(**changes):
    """data/z2.ring.json as JSON text, with the given keys replaced."""
    ring = {"rank": 2, "labels": ["e", "g"], "mult": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
            "unit": [1, 0], "involution": [0, 1]}
    return json.dumps({**ring, **changes})


def z2_module_text(**changes):
    """A rank-1 module file over data/z2.ring.json, with the given keys replaced."""
    module = {"ring": str(DATA / "z2.ring.json"), "rank": 1, "action": [[[1]], [[1]]]}
    return json.dumps({**module, **changes})


SHORT_CELL_RING = z2_ring_text(mult=[[[1, 0], [0]], [[0, 1], [1, 0]]])


@pytest.mark.parametrize("argv,file_text,error_type", [
    (["fusion2", "ffield", "2", "12", "0"], None, "ValueError"),
    (["fusion2", "ffield", "4", "2", "2"], None, "ValueError"),
    (["dy", "dims", "--group", "0", "--coeff", "q"], None, "ValueError"),
    (["dy", "dims", "--group", "2", "--coeff", "fp4"], None, "ValueError"),
    (["pointed", "classes", "--group", "x"], None, "ValueError"),
    (["ring", "validate"], '{"rank": 1, "unit": [1]}', "ValueError"),
    (["ring", "validate"], '{"mult": [[[1]]], "unit": [1]}', "ValueError"),
    (["twocat", "pi0"], '{"simples": ["a"]}', "ValueError"),
    (["ring", "validate"], "not json", "JSONDecodeError"),
    (["ring", "validate", "{tmp}/missing.json"], None, "FileNotFoundError"),
    (["ring", "validate", "{tmp}"], None, "IsADirectoryError"),
    (["twocat", "family", "--p", "4", "--depth", "3"], None, "ValueError"),
    (["twocat", "family", "--p", "1", "--depth", "3"], None, "ValueError"),
    (["twocat", "family", "--p", "-3", "--depth", "3"], None, "ValueError"),
    (["zmod", "enumerate", str(DATA / "z2.ring.json"), "--cap-scale", "0"], None, "ValueError"),
    (["zmod", "enumerate", str(DATA / "z2.ring.json"), "--cap-scale", "-1"], None, "ValueError"),
    (["ring", "homs", str(DATA / "z2.ring.json"), str(DATA / "z2.ring.json"),
      "--cap-scale", "0"], None, "ValueError"),
    (["ring", "validate"], "[1, 2]", "ValueError"),
    (["ring", "validate"], SHORT_CELL_RING, "ValueError"),
    (["ring", "homs", str(DATA / "z2.ring.json")], SHORT_CELL_RING, "ValueError"),
    (["zmod", "enumerate"], SHORT_CELL_RING, "ValueError"),
    (["ring", "validate"], z2_ring_text(mult=[[[1, 0], [0, 1.5]], [[0, 1], [1, 0]]]),
     "ValueError"),
    (["ring", "validate"], z2_ring_text(mult=[[[1, 0], [0, True]], [[0, 1], [1, 0]]]),
     "ValueError"),
    (["ring", "validate"], z2_ring_text(unit=[True, 0]), "ValueError"),
    (["ring", "validate"], z2_ring_text(involution=[0, "1"]), "ValueError"),
    (["zmod", "validate"], z2_module_text(action=[[[1]], [[1.5]]]), "ValueError"),
    (["zmod", "validate"], z2_module_text(action=[[[1]], [[False]]]), "ValueError"),
    (["zmod", "validate"], z2_module_text(action=[[[1]]]), "ValueError"),
    (["zmod", "validate"], z2_module_text(action=[[[1, 0]], [[0, 1]]]), "ValueError"),
], ids=["ffield-zero-degree", "ffield-not-prime", "dy-zero-order", "dy-bad-field",
        "bad-group", "ring-without-mult", "ring-without-rank-or-labels",
        "skeleton-without-hom-nonzero", "not-json", "missing-file", "directory",
        "family-p-4", "family-p-1", "family-p-minus-3", "zmod-cap-scale-0",
        "zmod-cap-scale-minus-1", "homs-cap-scale-0", "ring-not-an-object",
        "validate-short-cell", "homs-short-cell", "enumerate-short-cell",
        "float-coefficient", "bool-coefficient", "bool-unit", "string-involution",
        "module-float-entry", "module-bool-entry", "module-one-matrix",
        "module-not-square"])
def test_bad_values_and_files_are_usage_errors(tmp_path, capsys, argv, file_text, error_type):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if file_text is not None:
        path = tmp_path / "ring.json"
        path.write_text(file_text)
        argv = argv + [str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    error = json.loads(out)["error"]
    assert error["type"] == error_type
    assert set(error) == {"type", "message"}
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
UNEXECUTED = [
    (["ring", "validate", "data/fib.ring.json"],
     {"fusion2", "dy", "pointed", "skeleton", "zmodule", "fieldprofile"}),
    (["pointed", "braidings", "--p", "3"],
     {"algebras", "linalg", "basedring", "zmodule", "dy", "fusion2", "skeleton"}),
    (["twocat", "family", "--p", "2", "--depth", "8"],
     {"algebras", "linalg", "basedring", "pointed", "fieldprofile", "dy", "fusion2"}),
]


@pytest.mark.parametrize("argv, unexecuted", UNEXECUTED,
                         ids=["-".join(argv[:2]) for argv, _ in UNEXECUTED])
def test_a_command_runs_only_the_modules_it_calls(argv, unexecuted):
    script = (
        "import json, sys, types\n"
        "import modcat.cli\n"
        f"code = modcat.cli.run({argv!r})[1]\n"
        "print(json.dumps({'code': code, 'sympy': 'sympy' in sys.modules,\n"
        "                  'lazy': [n.split('.')[1] for n, m in sys.modules.items()\n"
        "                           if n.startswith('modcat.')\n"
        "                           and type(m) is not types.ModuleType]}))\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, cwd=str(DATA.parent))
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout)
    assert seen["code"] == 0
    assert not seen["sympy"]
    assert unexecuted <= set(seen["lazy"]), unexecuted - set(seen["lazy"])


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
