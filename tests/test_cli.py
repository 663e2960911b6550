"""CLI dispatch, file formats, determinism and exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from modcat.cli import main, render, run

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


def test_validation_error_exits_one_with_named_axiom(tmp_path):
    bad = tmp_path / "bad_ring.json"
    bad.write_text(json.dumps({
        "rank": 2, "labels": ["e", "b"], "unit": [1, 1],
        "mult": [[[1, 0], [0, 1]], [[0, 1], [0, 1]]]}))
    result, code = invoke(["ring", "validate", str(bad)])
    assert code == 1
    assert result.payload["error"]["type"] == "UnitLawFails"
    assert "index" in result.payload["error"]


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


@pytest.mark.parametrize("argv,file_text,error_type", [
    (["fusion2", "ffield", "2", "12", "0"], None, "ValueError"),
    (["fusion2", "ffield", "4", "2", "2"], None, "ValueError"),
    (["dy", "dims", "--group", "0", "--coeff", "q"], None, "ValueError"),
    (["dy", "dims", "--group", "2", "--coeff", "fp4"], None, "ValueError"),
    (["pointed", "classes", "--group", "x"], None, "ValueError"),
    (["ring", "validate"], '{"rank": 1, "unit": [1]}', "KeyError"),
    (["ring", "validate"], "not json", "JSONDecodeError"),
    (["ring", "validate", "{tmp}/missing.json"], None, "FileNotFoundError"),
    (["ring", "validate", "{tmp}"], None, "IsADirectoryError"),
    (["twocat", "family", "--p", "4", "--depth", "3"], None, "ValueError"),
    (["twocat", "family", "--p", "1", "--depth", "3"], None, "ValueError"),
    (["twocat", "family", "--p", "-3", "--depth", "3"], None, "ValueError"),
], ids=["ffield-zero-degree", "ffield-not-prime", "dy-zero-order", "dy-bad-field",
        "bad-group", "ring-without-mult", "not-json", "missing-file", "directory",
        "family-p-4", "family-p-1", "family-p-minus-3"])
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


def test_family_depth_guard_reports_size_and_guard():
    result, code = invoke(["twocat", "family", "--p", "2", "--depth", "257"])
    assert code == 1
    assert result.payload["error"]["type"] == "SizeGuardExceeded"
    assert result.payload["error"]["size"] == 257 ** 3
    assert result.payload["error"]["guard"] == 256 ** 3


def test_sympy_is_imported_only_for_factorization():
    # importing the CLI and validating a ring never factor a polynomial
    script = (
        "import sys\n"
        "import modcat.cli\n"
        "assert 'sympy' not in sys.modules, 'import modcat.cli loaded sympy'\n"
        "assert modcat.cli.run(['ring', 'validate', 'data/fib.ring.json'])[1] == 0\n"
        "assert 'sympy' not in sys.modules, 'ring validate loaded sympy'\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, cwd=str(DATA.parent))
    assert result.returncode == 0, result.stderr
