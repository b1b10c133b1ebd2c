"""Command-line interface: exit codes, report rendering, determinism,
and input handling."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from orbitvar import cli, models
from orbitvar.cli import main
from orbitvar.liealg import AlgebraError, WeightedLieAlgebra
from orbitvar.report import SCHEMA
from test_orbit import run_without_sympy


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "validate", "--builtin", "borel-nilradical-A2")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == SCHEMA
        assert data["summary"]["worst"] == "proven"

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "validate", "--builtin", "nope")
        assert code == 2 and "unknown builtin" in err

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "validate")
        assert code == 2 and "required" in err

    def test_both_inputs_rejected(self, capsys, tmp_path):
        p = tmp_path / "a.json"
        p.write_text("{}")
        code, _, err = run(
            capsys, "validate", "--builtin", "abelian:2", "--input", str(p)
        )
        assert code == 2

    def test_refutation_exits_one(self, capsys, tmp_path):
        from orbitvar.liealg import WeightedLieAlgebra

        bad = WeightedLieAlgebra.build(2, ["x", "y"], {"x": [1, 0], "y": [2, 0]}, [])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad.to_json()))
        code, out, _ = run(capsys, "validate", "--input", str(p))
        assert code == 1
        assert json.loads(out)["summary"]["counts"]["refuted"] >= 1

    def test_invalid_algebra_blocked_from_other_commands(self, capsys, tmp_path):
        from orbitvar.liealg import WeightedLieAlgebra

        bad = WeightedLieAlgebra.build(2, ["x", "y"], {"x": [1, 0], "y": [2, 0]}, [])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad.to_json()))
        code, _, err = run(capsys, "fixed-points", "--input", str(p))
        assert code == 2 and "validation" in err

    def test_validate_runs_validation_once(self, capsys, monkeypatch):
        from orbitvar.liealg import WeightedLieAlgebra

        calls = []
        original = WeightedLieAlgebra.validate

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(WeightedLieAlgebra, "validate", counting)
        code, _, _ = run(capsys, "validate", "--builtin", "borel-nilradical-A2")
        assert code == 0 and len(calls) == 1

    def test_suite_stage_that_raised_exits_two(self, capsys, tmp_path):
        from orbitvar.cli import cmd_suite
        from orbitvar.liealg import WeightedLieAlgebra

        # heisenberg-3 with a third torus direction that every weight kills:
        # the center has dimension 1, so boundary, chart and nilcone raise
        alg = WeightedLieAlgebra.build(
            3, ["p", "q", "c"], {"p": [1, 0, 0], "q": [0, 1, 0], "c": [1, 1, 0]}, [("p", "q", {"c": 1})]
        )
        p = tmp_path / "central.json"
        p.write_text(json.dumps(alg.to_json()))
        dest = tmp_path / "report.json"
        code, _, _ = run(capsys, "suite", "--input", str(p), "--output", str(dest))
        assert code == 2
        data = json.loads(dest.read_text())
        assert data["summary"]["worst"] == "unknown"
        stages = {c["name"] for c in data["checks"] if c["name"].startswith("stage-")}
        assert stages == {"stage-boundary", "stage-chart", "stage-nilcone"}
        assert dest.read_text() == cmd_suite(alg, 0).render_json()

    def test_malformed_json(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        code, _, err = run(capsys, "validate", "--input", str(p))
        assert code == 2

    @pytest.mark.parametrize("shape", ["bare", "brackets"])
    def test_deeply_nested_json_exits_two(self, capsys, tmp_path, shape):
        # nesting past the interpreter's recursion limit, alone or as the
        # "brackets" of a valid algebra; exit 1 would read "refuted"
        deep = "[" * 200_000 + "]" * 200_000
        if shape == "brackets":
            data = models.borel_nilradical_a2().to_json()
            data["brackets"] = None
            deep = json.dumps(data).replace("null", deep)
        p = tmp_path / "deep.json"
        p.write_text(deep)
        code, out, err = run(capsys, "validate", "--input", str(p))
        assert code == 2 and not out
        assert err.startswith("error: cannot read algebra:") and "Traceback" not in err

    def test_malformed_rational(self, capsys, tmp_path):
        data = models.borel_nilradical_a2().to_json()
        data["weights"]["xa"] = ["1/0", "0"]
        p = tmp_path / "div.json"
        p.write_text(json.dumps(data))
        code, _, err = run(capsys, "validate", "--input", str(p))
        assert code == 2

    @pytest.mark.parametrize(
        "bracket, message",
        [
            ({"left": "x", "right": "y", "value": []}, "outside the a-basis"),
            ({"left": "x", "right": "x2", "value": [{"basis": "y", "coeff": "1"}]}, "outside the a-basis"),
            ({"left": ["x"], "right": "x2", "value": []}, "unhashable"),
        ],
        ids=["pair", "value", "list"],
    )
    def test_bracket_naming_an_unknown_basis_element(self, capsys, tmp_path, bracket, message):
        data = {"t_dim": 1, "a_basis": ["x", "x2"], "weights": {"x": ["1"], "x2": ["2"]}, "brackets": [bracket]}
        p = tmp_path / "unknown.json"
        p.write_text(json.dumps(data))
        code, _, err = run(capsys, "validate", "--input", str(p))
        assert code == 2 and message in err

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"t_dim": -1, "a_basis": [], "weights": {}}, "t_dim must be nonnegative"),
            ({"t_dim": 1, "a_basis": ["x", "x"], "weights": {"x": ["1"]}}, "names must be distinct"),
            # read at one time as the basis x, y with weights (1, 0) and (0, 1)
            ({"t_dim": 2, "a_basis": "xy", "weights": {"x": "10", "y": "01"}}, "a_basis must be a list of strings"),
            ({"t_dim": 2, "a_basis": ["x", "y"], "weights": {"x": "10", "y": "01"}}, "to a list"),
            ({"t_dim": True, "a_basis": ["x"], "weights": {"x": ["1"]}}, "t_dim must be an integer"),
            ({"t_dim": "1", "a_basis": ["x"], "weights": {"x": ["1"]}}, "t_dim must be an integer"),
            ({"t_dim": 1, "a_basis": [1], "weights": {"1": ["1"]}}, "a_basis must be a list of strings"),
            ({"t_dim": 1, "a_basis": ["x"], "weights": [["1"]]}, "to a list"),
            ({"t_dim": 1, "a_basis": ["x"], "weights": {"x": [True]}}, "JSON bool"),
            # read at one time as `list indices must be integers or slices, not str`
            ([{"t_dim": 1, "a_basis": ["x"], "weights": {"x": ["1"]}}], "must be a JSON object"),
            (None, "must be a JSON object"),
            # read at one time as `string indices must be integers`
            ({"t_dim": 1, "a_basis": ["x"], "weights": {"x": ["1"]}, "brackets": "oops"}, "brackets must be a list"),
            ({"t_dim": 1, "a_basis": ["x"], "weights": {"x": ["1"]}, "brackets": {"left": "x"}}, "brackets must be a list"),
            ({"t_dim": 1, "a_basis": ["x"], "weights": {"x": ["1"]}, "brackets": [["x", "x"]]}, "brackets must be a list"),
            (
                {"t_dim": 1, "a_basis": ["x"], "weights": {"x": ["1"]}, "brackets": [{"left": "x", "right": "x", "value": "x"}]},
                "bracket value must be a list",
            ),
            (
                {"t_dim": 1, "a_basis": ["x"], "weights": {"x": ["1"]}, "brackets": [{"left": "x", "right": "x", "value": ["x"]}]},
                "bracket value must be a list",
            ),
        ],
        ids=[
            "negative-t_dim",
            "repeated-name",
            "string-basis",
            "string-weights",
            "boolean-t_dim",
            "string-t_dim",
            "number-name",
            "list-of-weights",
            "boolean-coordinate",
            "top-level-list",
            "top-level-null",
            "string-brackets",
            "object-brackets",
            "list-bracket",
            "string-value",
            "string-term",
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "fixed-points", "boundary"])
    def test_malformed_algebra_refused(self, capsys, tmp_path, data, message, command):
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(data))
        dest = tmp_path / "report.json"
        code, out, err = run(capsys, command, "--input", str(p), "--output", str(dest))
        assert code == 2 and "error: cannot parse algebra" in err and message in err
        assert not out and not dest.exists()

    @pytest.mark.parametrize("where", ["weight", "coeff"])
    def test_float_number_refused(self, capsys, tmp_path, where):
        data = models.borel_nilradical_a2().to_json()
        if where == "weight":
            data["weights"]["xa"][0] = 0.1
        else:
            data["brackets"][0]["value"][0]["coeff"] = 0.1
        p = tmp_path / "float.json"
        p.write_text(json.dumps(data))
        code, _, err = run(capsys, "validate", "--input", str(p))
        assert code == 2 and "float" in err


DIGITS = getattr(sys, "get_int_max_str_digits", int)()


@pytest.mark.skipif(not DIGITS, reason="Python's int-string digit limit is off")
class TestNumbersPastTheDigitLimit:
    """A number whose numerator or denominator has more digits than
    Python converts to a string could not be printed in a report: it is
    refused with exit 2, and a decimal exponent is checked before the
    number is formed, so `1e9999999` is refused at once."""

    def write(self, tmp_path, weight, coeff="1"):
        data = {
            "t_dim": 2,
            "a_basis": ["x", "y", "z"],
            "weights": {"x": [weight, "0"], "y": ["0", "1"], "z": [weight, "1"]},
            "brackets": [{"left": "x", "right": "y", "value": [{"basis": "z", "coeff": coeff}]}],
        }
        p = tmp_path / "alg.json"
        p.write_text(json.dumps(data))
        return p

    def test_a_json_integer_past_the_limit_cannot_be_read(self, capsys, tmp_path):
        p = tmp_path / "big.json"
        p.write_text('{"t_dim": 1, "a_basis": ["x"], "weights": {"x": [1' + "0" * DIGITS + "]}}")
        dest = tmp_path / "report"
        code, out, err = run(capsys, "validate", "--input", str(p), "--output", str(dest))
        assert code == 2 and err.startswith("error: cannot read algebra:") and "Traceback" not in err
        assert not out and not dest.exists()

    @pytest.mark.parametrize(
        "number, value",
        [
            (f"1e{DIGITS - 1}", 10 ** (DIGITS - 1)),
            (f"12e{DIGITS - 2}", 12 * 10 ** (DIGITS - 2)),
            (f"1.5e{DIGITS - 1}", 15 * 10 ** (DIGITS - 2)),
            (f"-1e-{DIGITS - 1}", Fraction(-1, 10 ** (DIGITS - 1))),
            # 5 / 10**DIGITS is 1 / (2 * 10**(DIGITS - 1)): DIGITS digits
            (f"5e-{DIGITS}", Fraction(1, 2 * 10 ** (DIGITS - 1))),
            # the mantissa's zeros cancel 1,000 powers of ten of the denominator
            (f"1{'0' * 1000}e-{DIGITS + 999}", Fraction(1, 10 ** (DIGITS - 1))),
            ("0e9999999", 0),
        ],
        ids=["largest", "largest-two-digits", "largest-decimal", "negative-exponent", "reduced-denominator", "cancelled-zeros", "zero"],
    )
    def test_the_largest_numbers_are_read(self, capsys, tmp_path, number, value):
        p = self.write(tmp_path, "1", number)
        start = time.perf_counter()
        alg = WeightedLieAlgebra.from_json(json.loads(p.read_text()))
        assert time.perf_counter() - start < 1
        assert next((c for _, _, terms in alg.brackets for _, c in terms), 0) == value
        code, out, _ = run(capsys, "validate", "--input", str(p))
        assert code == 0 and json.loads(out)["algebra_fingerprint"] == alg.fingerprint()

    @pytest.mark.parametrize(
        "number",
        [
            f"1e{DIGITS}",
            f"12e{DIGITS - 1}",
            f"1.5e{DIGITS}",
            f"-1e-{DIGITS}",
            f"1e-{DIGITS + 1}",
            "1e9999999",
            "1e-9999999",
            "1e" + "9" * (DIGITS + 1),
        ],
        ids=["smallest", "smallest-two-digits", "smallest-decimal", "negative-exponent", "past-negative", "huge", "huge-negative", "exponent-past-the-limit"],
    )
    @pytest.mark.parametrize("where", ["weight", "coeff"])
    def test_a_number_past_the_limit_exits_two(self, capsys, tmp_path, number, where):
        p = self.write(tmp_path, number, "1") if where == "weight" else self.write(tmp_path, "1", number)
        start = time.perf_counter()
        with pytest.raises(AlgebraError, match=f"more than {DIGITS} digits"):
            WeightedLieAlgebra.from_json(json.loads(p.read_text()))
        code, out, err = run(capsys, "fixed-points", "--input", str(p))
        assert code == 2 and f"more than {DIGITS} digits" in err and not out
        # forming 10**9999999 alone takes seconds
        assert time.perf_counter() - start < 1

    def test_an_integer_past_the_limit_is_refused_by_the_library(self):
        data = {"t_dim": 1, "a_basis": ["x"], "weights": {"x": [10**DIGITS]}}
        with pytest.raises(AlgebraError, match="digits"):
            WeightedLieAlgebra.from_json(data)
        data["weights"]["x"] = [10**DIGITS - 1]
        assert WeightedLieAlgebra.from_json(data).weights[0].coords == (10**DIGITS - 1,)


class TestRendering:
    def test_json_is_sorted_and_parseable(self, capsys):
        _, out, _ = run(capsys, "fixed-points", "--builtin", "borel-nilradical-A2")
        data = json.loads(out)
        assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"

    def test_markdown(self, capsys):
        _, out, _ = run(
            capsys, "fixed-points", "--builtin", "abelian:2", "--format", "markdown"
        )
        assert out.startswith("# fixed-points")
        assert "| check | verdict | claim |" in out

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "fixed-points",
            "--builtin",
            "abelian:2",
            "--output",
            str(dest),
        )
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["schema"] == SCHEMA

    @pytest.mark.parametrize("where", ("missing-directory", "a-directory"))
    def test_unwritable_output_exits_two(self, capsys, tmp_path, where):
        """A report that cannot be written is an error, not a refutation."""
        dest = tmp_path / "missing" / "r.json" if where == "missing-directory" else tmp_path
        code, out, err = run(capsys, "validate", "--builtin", "sl2-borel", "--output", str(dest))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write report: ")


class TestDeterminism:
    @pytest.mark.parametrize(
        "command", ["validate", "fixed-points", "boundary", "property-p"]
    )
    def test_repeat_runs_identical(self, capsys, command):
        _, first, _ = run(
            capsys, command, "--builtin", "borel-nilradical-A2", "--seed", "0"
        )
        _, second, _ = run(
            capsys, command, "--builtin", "borel-nilradical-A2", "--seed", "0"
        )
        assert first == second


class TestCachedParser:
    """`main` parses with one parser built on first use; a call leaves
    nothing behind that the next call could read."""

    def test_bad_argument_after_a_good_call(self, capsys):
        assert run(capsys, "validate", "--builtin", "sl2-borel")[0] == 0
        for argv in (["nope", "--builtin", "sl2-borel"], ["validate", "--seed", "x"], ["validate", "--bogus"]):
            with pytest.raises(SystemExit) as cached:
                main(argv)
            err = capsys.readouterr().err
            with pytest.raises(SystemExit) as fresh:
                cli._parser.__wrapped__().parse_args(argv)
            assert cached.value.code == fresh.value.code == 2
            assert err == capsys.readouterr().err
            assert err.startswith("usage: orbitvar [-h]")

    def test_help_matches_a_fresh_parser(self, capsys):
        assert run(capsys, "validate", "--builtin", "sl2-borel")[0] == 0
        with pytest.raises(SystemExit) as cached:
            main(["--help"])
        out = capsys.readouterr().out
        with pytest.raises(SystemExit) as fresh:
            cli._parser.__wrapped__().parse_args(["--help"])
        assert cached.value.code == fresh.value.code == 0
        assert out == capsys.readouterr().out
        assert out.startswith("usage: orbitvar")
        assert cli._parser() is cli._parser()

    def test_alternating_commands_match_each_command_alone(self, capsys, tmp_path):
        p = tmp_path / "a2.json"
        p.write_text(json.dumps(models.borel_nilradical_a2().to_json()))
        calls = [
            ["validate", "--builtin", "heisenberg-3"],
            ["fixed-points", "--input", str(p), "--seed", "3"],
            ["boundary", "--builtin", "borel-nilradical-A2", "--format", "markdown"],
            ["property-p", "--builtin", "heisenberg-3"],
        ]
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        alone = []
        for k, argv in enumerate(calls):
            dest = tmp_path / f"alone-{k}"
            done = subprocess.run([sys.executable, "-m", "orbitvar.cli", *argv, "--output", str(dest)], env=env, timeout=120)
            assert done.returncode == 0, argv
            alone.append(dest.read_bytes())
        dest = tmp_path / "report"
        for k in (0, 1, 2, 3, 1, 3, 0, 2):
            assert main(calls[k] + ["--output", str(dest)]) == 0
            assert dest.read_bytes() == alone[k], calls[k]
            with pytest.raises(SystemExit):
                main(calls[k][:1] + ["--format", "yaml"])


class TestCommandContent:
    def test_fixed_points_counts(self, capsys):
        _, out, _ = run(capsys, "fixed-points", "--builtin", "borel-nilradical-A2")
        data = json.loads(out)
        names = {c["name"] for c in data["checks"]}
        assert any("torus" in n for n in names)
        assert data["algebra_fingerprint"] == models.borel_nilradical_a2().fingerprint()

    def test_boundary_no_refutations(self, capsys):
        code, out, _ = run(capsys, "boundary", "--builtin", "borel-nilradical-A3")
        assert code == 0
        assert json.loads(out)["summary"]["worst"] == "proven"

    def test_ps_check(self, capsys):
        code, out, _ = run(capsys, "ps-check", "--builtin", "abelian:2")
        assert code == 0
        assert json.loads(out)["summary"]["worst"] == "proven"

    def test_nilcone_a2(self, capsys):
        code, out, _ = run(capsys, "nilcone", "--builtin", "borel-nilradical-A2")
        assert code == 0
        assert json.loads(out)["summary"]["worst"] == "proven"


class TestWithoutSympy:
    def test_every_command_and_the_string_path_run_with_sympy_blocked(self, tmp_path):
        """Every command on A2 and `heisenberg-3`, and the text input of
        `ideals`, in an interpreter where importing sympy fails."""
        report = str(tmp_path / "report")
        run_without_sympy(
            f"""
from fractions import Fraction
from orbitvar import cli, ideals
for name in ("borel-nilradical-A2", "heisenberg-3"):
    for command in cli.RUNNERS:
        assert cli.main([command, "--builtin", name, "--output", {report!r}]) == 0, (command, name)
ring = ideals.PolyRing(("x", "y", "z"))
ideal = ideals.Ideal.make(ring, ["x**2 - y", "x*y - 0.5*z"])
assert ideal.contains("x**3 - x*y") and not ideal.contains("x")
assert str(ideal.normal_form("z/2 + 1/2")) == str(ideal.normal_form("x*y + 0.5")) == "x**3 + 1/2"
assert ideal.normal_form("(0.25 + 4)**3/3") == Fraction(4913, 192)
out = ideals.regular_sequence_check(ideals.Ideal.make(ring, ["x*y"]), ["x + y", "x"])
assert [c.verdict for c in out.checks] == ["proven", "refuted"]
assert ideals.ideal_quotient(ideals.Ideal.make(ring, ["x*y"]), "x").contains("y")
for bad in ("sqrt(2)*x", "x^2", 0.5):
    try:
        ideal.contains(bad)
    except ideals.IdealError:
        pass
    else:
        raise AssertionError(bad)
""",
            blocked=True,
        )
