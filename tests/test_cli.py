"""CLI contract: parsing, round-trips, command output, DOT, exit codes."""

import contextlib
import io
import json

import pytest

from posetkernel import cli
from posetkernel.catalog import make_catalog
from posetkernel.errors import ParseError, ValidationError


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestParseInput:
    def test_symbolic_kinds(self):
        for kind in ("omega_plus_one", "closed_sets",
                     "punctured_closed_sets"):
            doc = cli.parse_input(json.dumps({"kind": kind}))
            assert doc.data == {"kind": kind}

    def test_finite_document(self):
        doc = cli.parse_input(
            '{"kind":"finite","elements":["a","b"],"covers":[["a","b"]]}')
        assert doc.data["elements"] == ["a", "b"]

    def test_cover_loop_rejected(self):
        with pytest.raises(ValidationError):
            cli.parse_input(
                '{"kind":"finite","elements":["a"],"covers":[["a","a"]]}')

    def test_bad_json_carries_line(self):
        with pytest.raises(ParseError) as err:
            cli.parse_input('{"kind": \n "nope", }')
        assert err.value.line is not None

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            cli.parse_input('{"kind": "matroid"}')

    def test_nested_documents(self):
        text = ('{"kind":"disjoint_sum",'
                '"left":{"kind":"lift","inner":{"kind":"closed_sets"}},'
                '"right":{"kind":"omega_plus_one"}}')
        doc = cli.parse_input(text)
        assert doc.data["left"]["kind"] == "lift"

    def test_round_trip_identity(self):
        texts = (
            '{"kind": "omega_plus_one"}',
            '{"covers": [["a","b"]], "elements": ["a","b"], '
            '"kind": "finite"}',
            '{"kind":"lift","inner":{"kind":"punctured_closed_sets"}}',
        )
        for text in texts:
            doc = cli.parse_input(text)
            assert cli.parse_input(doc.serialize()).data == doc.data

    def test_shorthand_closed_set_literal(self):
        P = make_catalog(cli.cat.closed_sets())
        rep = P.parse_element({"finite": [1, 3], "infinity": True})
        assert P.format_element(rep) == "{1,3,inf}"
        full = P.parse_element({"period": 1, "residues": [0],
                                "infinity": True})
        assert P.format_element(full) == "{mod 1: [0] from 0, inf}"

    def test_bad_literals(self):
        P = make_catalog(cli.cat.closed_sets())
        with pytest.raises(ValidationError):
            P.parse_element({"finite": [-1]})
        with pytest.raises(ValidationError):
            P.parse_element({"bogus": 1})
        PP = make_catalog(cli.cat.punctured_closed_sets())
        with pytest.raises(ValidationError):
            PP.parse_element({"finite": []})


class TestCheckCommand:
    def test_diamond_all_verified(self):
        code, out, _ = run_cli(["check", "diamond", "--law", "all"])
        assert code == 0
        assert "REFUTED" not in out
        assert "[continuous] VERIFIED" in out

    @pytest.mark.parametrize("kind", ["chain_2", "antichain_2"])
    def test_two_element_kinds_run_every_law(self, kind):
        """The inf law samples at most as many retract elements as exist."""
        code, out, err = run_cli(["check", kind, "--law", "all"])
        assert code == 0
        assert "] REFUTED" not in out
        assert "[infima-preservation]" in out
        assert "Traceback" not in err

    def test_closed_sets_continuity_refuted(self):
        code, out, _ = run_cli(["check", "closed_sets", "--law",
                                "continuity"])
        assert code == 1
        assert "witness={inf}" in out
        assert "sup of approximants = {}" in out

    def test_sampled_kernel_check(self):
        code, out, _ = run_cli(["check", "closed_sets", "--law", "kernel",
                                "--samples", "120", "--seed", "7"])
        assert code == 0
        assert "UNREFUTED" in out

    def test_strict_flag(self):
        code, _, _ = run_cli(["check", "closed_sets", "--law", "kernel",
                              "--samples", "60", "--strict"])
        assert code == 2

    def test_strict_with_verified_outcome(self):
        code, _, _ = run_cli(["check", "closed_sets", "--law",
                              "interpolation", "--strict"])
        assert code == 0

    def test_file_input(self, tmp_path):
        path = tmp_path / "poset.json"
        path.write_text('{"kind":"finite","elements":["a","b"],'
                        '"covers":[["a","b"]]}')
        code, out, _ = run_cli(["check", str(path), "--law", "continuity"])
        assert code == 0
        assert "VERIFIED" in out

    def test_unknown_poset_name(self):
        code, _, err = run_cli(["check", "nonesuch"])
        assert code == 65
        assert "neither a file nor a catalog name" in err

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run_cli(["check", str(path)])
        assert code == 65

    def test_usage_errors(self):
        assert run_cli([])[0] == 64
        assert run_cli(["frobnicate"])[0] == 64
        code, _, err = run_cli(["check", "closed_sets", "--law", "gibberish"])
        assert code == 64


class TestAnalyzeCommand:
    def test_kernel_of_inf_point(self):
        code, out, _ = run_cli(["analyze", "closed_sets", "kernel",
                                "--element",
                                '{"finite": [], "infinity": true}'])
        assert code == 0
        assert "approximable: yes" in out
        assert "kernel: {}" in out
        assert "in retract: no" in out

    def test_kernel_not_approximable(self):
        code, out, _ = run_cli(["analyze", "punctured_closed_sets", "kernel",
                                "--element",
                                '{"finite": [], "infinity": true}'])
        assert code == 0
        assert "approximable: no" in out
        assert "undefined" in out

    def test_retract_listing_finite(self):
        code, out, _ = run_cli(["analyze", "diamond", "retract"])
        assert code == 0
        assert "retract carrier: {a, b, c, d}" in out

    def test_retract_rule_symbolic(self):
        code, out, _ = run_cli(["analyze", "closed_sets", "retract",
                                "--elements",
                                '{"finite": [], "infinity": true}',
                                '{"period": 2, "residues": [0], '
                                '"infinity": true}'])
        assert code == 0
        assert "membership rule" in out
        assert "in retract {inf}: no" in out
        assert "in retract {mod 2: [0] from 0, inf}: yes" in out

    def test_quotient(self):
        code, out, _ = run_cli([
            "analyze", "closed_sets", "quotient", "--elements",
            '{"finite": [], "infinity": true}', '{"finite": []}',
            '{"finite": [1], "infinity": true}', '{"finite": [1]}'])
        assert code == 0
        assert "classes: 2" in out
        assert "-> {}" in out
        assert "-> {1}" in out

    def test_omega_literals(self):
        code, out, _ = run_cli(["analyze", "omega_plus_one", "kernel",
                                "--element", "omega"])
        assert code == 0
        assert "kernel: omega" in out
        code, out, _ = run_cli(["analyze", "omega_plus_one", "kernel",
                                "--element", "nat:4"])
        assert "kernel: 4" in out

    def test_finite_label_literal(self):
        code, out, _ = run_cli(["analyze", "diamond", "kernel",
                                "--element", "d"])
        assert code == 0
        assert "kernel: d" in out

    def test_bad_literal_exits_65(self):
        code, _, err = run_cli(["analyze", "diamond", "kernel",
                                "--element", "zz"])
        assert code == 65

    @pytest.mark.parametrize("poset, literal", [
        ("closed_sets", '{"finite": [true]}'),
        ("closed_sets", '{"finite": [1.5]}'),
        ("closed_sets", '{"finite": [1], "infinity": 1}'),
        ("closed_sets", '{"prefix": [1.5], "threshold": 3, "period": 2, '
                        '"residues": [0], "infinity": true}'),
        ("closed_sets", '{"prefix": [], "threshold": true, "period": 2, '
                        '"residues": [0], "infinity": true}'),
        ("closed_sets", '{"period": 2.0, "residues": [0], "infinity": true}'),
        ("closed_sets", '{"period": 65537, "residues": [0], '
                        '"infinity": true}'),
        ("closed_sets", '{"prefix": [], "threshold": 65537, "period": 1, '
                        '"residues": [], "infinity": false}'),
        ("closed_sets", '{"period": 2, "residues": {"0": 1}, '
                        '"infinity": true}'),
        ("punctured_closed_sets", '{"finite": [false]}'),
        ("omega_plus_one", "nat:+4"),
        ("omega_plus_one", "nat: 4"),
    ])
    def test_bool_float_and_oversized_literals_exit_65(self, poset, literal):
        code, out, err = run_cli(["analyze", poset, "kernel",
                                  "--element", literal])
        assert code == 65
        assert out == "" and err.startswith("input error:")

    def test_missing_element_usage(self):
        code, _, _ = run_cli(["analyze", "diamond", "kernel"])
        assert code == 64


class TestExportDot:
    def test_diamond_hasse(self):
        code, out, _ = run_cli(["export-dot", "diamond"])
        assert code == 0
        assert out == (
            "digraph poset {\n"
            "  rankdir=BT;\n"
            '  n0 [label="a"];\n'
            '  n1 [label="b"];\n'
            '  n2 [label="c"];\n'
            '  n3 [label="d"];\n'
            "  n0 -> n1;\n"
            "  n0 -> n2;\n"
            "  n1 -> n3;\n"
            "  n2 -> n3;\n"
            "}\n")

    def test_diamond_waybelow_mirrors_order(self):
        code, out, _ = run_cli(["export-dot", "diamond", "--waybelow"])
        assert code == 0
        dashed = [line for line in out.splitlines() if "dashed" in line]
        assert len(dashed) == 5  # strict pairs of the diamond

    def test_truncated_closed_sets(self):
        code, out, _ = run_cli(["export-dot", "closed_sets",
                                "--truncate", "1"])
        assert code == 0
        assert out.count("[label=") == 8

    def test_symbolic_without_truncate_fails(self):
        code, _, err = run_cli(["export-dot", "closed_sets"])
        assert code == 65

    def test_byte_stable(self):
        first = run_cli(["export-dot", "boolean_3", "--waybelow"])[1]
        second = run_cli(["export-dot", "boolean_3", "--waybelow"])[1]
        assert first == second

    def test_out_file(self, tmp_path):
        target = tmp_path / "diamond.dot"
        code, out, _ = run_cli(["export-dot", "diamond", "--out",
                                str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("digraph poset {")


class TestSelftest:
    def test_quick_run_passes(self):
        code, out, _ = run_cli(["selftest", "--quick"])
        assert code == 0
        assert "10/10 criteria passed" in out
        assert out.count("PASS") == 10
