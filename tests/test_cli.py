"""CLI contract: parsing, round-trips, command output, DOT, exit codes."""

import contextlib
import io
import json
import time

import pytest
from hypothesis import given, strategies as st

from posetkernel import cli
from posetkernel.catalog import (DOCUMENT_FIELDS, MAX_DOCUMENT_DEPTH,
                                 CatalogSpec, closed_sets, disjoint_sum,
                                 finite_explicit, finite_named, finite_random,
                                 lift, make_catalog, omega_plus_one,
                                 spec_to_document, standard_roster)
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
            spec = cli.parse_input(json.dumps({"kind": kind}))
            assert spec == CatalogSpec(kind)
            assert spec_to_document(spec) == {"kind": kind}

    def test_finite_document(self):
        spec = cli.parse_input(
            '{"kind":"finite","elements":["a","b"],"covers":[["a","b"]]}')
        assert spec == finite_explicit(["a", "b"], [("a", "b")])
        assert spec_to_document(spec)["elements"] == ["a", "b"]

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
        spec = cli.parse_input(text)
        assert spec == disjoint_sum(lift(closed_sets()), omega_plus_one())
        assert spec_to_document(spec)["left"]["kind"] == "lift"

    def test_round_trip_identity(self):
        texts = (
            '{"kind": "omega_plus_one"}',
            '{"covers": [["a","b"]], "elements": ["a","b"], '
            '"kind": "finite"}',
            '{"kind":"lift","inner":{"kind":"punctured_closed_sets"}}',
        )
        for text in texts:
            spec = cli.parse_input(text)
            assert spec_to_document(spec) == json.loads(text)
            assert cli.parse_input(json.dumps(spec_to_document(spec))) == spec

    @pytest.mark.parametrize("spec", [
        finite_named("diamond"), finite_named("boolean_3"),
        finite_random(7, 0.4, 3),
        disjoint_sum(finite_named("chain_2"), closed_sets())],
        ids=["diamond", "boolean_3", "random_7", "sum_chain_2_closed"])
    def test_finite_specs_round_trip_to_the_same_order(self, spec):
        again = cli.parse_input(json.dumps(spec_to_document(spec)))
        P, Q = make_catalog(spec), make_catalog(again)
        elems = P.interesting_elements()
        assert Q.interesting_elements() == elems
        assert list(map(Q.format_element, elems)) \
            == list(map(P.format_element, elems))
        assert [[Q.leq(x, y) for y in elems] for x in elems] \
            == [[P.leq(x, y) for y in elems] for x in elems]

    def test_lift_nesting_is_capped(self):
        def lifts(depth):
            return ('{"kind":"lift","inner":' * depth
                    + '{"kind":"omega_plus_one"}' + "}" * depth)

        spec = cli.parse_input(lifts(MAX_DOCUMENT_DEPTH))
        for _ in range(MAX_DOCUMENT_DEPTH):
            spec = spec.inner
        assert spec == omega_plus_one()
        with pytest.raises(ValidationError):
            cli.parse_input(lifts(MAX_DOCUMENT_DEPTH + 1))

    def test_json_nesting_beyond_the_decoder_is_a_parse_error(self):
        with pytest.raises(ParseError):
            cli.parse_input('{"kind":"lift","inner":' * 3000 + "}" * 3000)
        P = make_catalog(closed_sets())
        with pytest.raises(ValidationError):
            cli.parse_element_arg(P, "[" * 3000 + "]" * 3000)

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
        assert "] REFUTED" not in out
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

    @pytest.mark.parametrize("n", [16, 17])
    def test_finite_documents_stop_at_the_cap(self, tmp_path, n):
        labels = [str(i) for i in range(n)]
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"kind": "finite", "elements": labels,
                                    "covers": list(zip(labels, labels[1:]))}))
        code, out, err = run_cli(["check", str(path), "--law", "all"])
        if n == 16:
            assert (code, err) == (0, "")
            assert "] SKIPPED" not in out
        else:
            assert (code, out) == (65, "")
            assert err == ("input error: 'elements' lists at most 16 labels, "
                           "got 17\n")

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

    @pytest.mark.parametrize("samples", ["-5", "0"])
    def test_samples_below_one_is_a_usage_error(self, samples):
        code, out, err = run_cli(["check", "closed_sets", "--law", "kernel",
                                  "--samples", samples])
        assert code == 64
        assert out == ""
        assert err == (f"usage error: argument --samples: must be at least "
                       f"1, got {int(samples)}\n")

    def test_negative_seed_is_a_usage_error(self):
        code, out, err = run_cli(["check", "closed_sets", "--law", "kernel",
                                  "--seed", "-5"])
        assert code == 64
        assert out == ""
        assert err == ("usage error: argument --seed: must be at least 0, "
                       "got -5\n")

    def test_non_integer_seed_is_a_usage_error(self):
        code, _, err = run_cli(["check", "closed_sets", "--seed", "x"])
        assert code == 64
        assert err == "usage error: argument --seed: invalid int value: 'x'\n"

    def test_hex_seed_reads_back_as_printed(self):
        default = run_cli(["check", "omega_plus_one", "--law", "kernel"])
        assert "seed=0xC0FFEE," in default[1]
        assert run_cli(["check", "omega_plus_one", "--law", "kernel",
                        "--seed", "0xC0FFEE"]) == default

    def test_non_integer_samples_message_unchanged(self):
        code, _, err = run_cli(["check", "closed_sets", "--samples", "x"])
        assert code == 64
        assert err == "usage error: argument --samples: invalid int value: " \
                      "'x'\n"

    def test_seed_and_samples_steer_only_the_inf_law_on_finite_kinds(self):
        """Finite kinds are exhausted; --seed/--samples pick the inf law's
        retract subsets and nothing else."""
        code, default, _ = run_cli(["check", "diamond", "--law", "all"])
        code7, steered, _ = run_cli(["check", "diamond", "--law", "all",
                                     "--seed", "7", "--samples", "300"])
        assert code == code7 == 0
        inf, = [line for line in steered.splitlines()
                if line.startswith("[infima-preservation]")]
        assert "scope=sampled(seed=0x7,count=300)" in inf
        assert "reason=30 retract subsets checked" in inf
        assert [line for line in steered.splitlines() if line != inf] == \
            [line for line in default.splitlines()
             if not line.startswith("[infima-preservation]")]

    @pytest.mark.parametrize("write", [
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b'{"kind": "caf\xe9"}'),
        lambda path: path.write_text('{"kind":"lift","inner":' * 600
                                     + '{"kind":"closed_sets"}' + "}" * 600),
        lambda path: path.write_text('{"kind":"lift","inner":' * 3000
                                     + "}" * 3000),
    ], ids=["directory", "not-utf8", "nested-600", "nested-3000"])
    def test_unreadable_inputs_exit_65(self, tmp_path, write):
        path = tmp_path / "poset.json"
        write(path)
        code, out, err = run_cli(["check", str(path)])
        assert code == 65
        assert out == "" and err.startswith("input error:")

    def test_deep_element_literal_exits_65(self):
        code, out, err = run_cli(["analyze", "closed_sets", "kernel",
                                  "--element", "[" * 3000 + "]" * 3000])
        assert code == 65
        assert out == "" and err.startswith("input error:")

    def test_inf_law_is_unrefuted_on_finite_kinds(self):
        code, out, _ = run_cli(["check", "chain_2", "--law", "inf"])
        assert code == 0
        assert out.startswith("[infima-preservation] UNREFUTED scope=sampled(")

    def test_finite_bank_law_is_verified(self):
        # every one of the 2^14 - 1 directed subsets of the chain is scanned
        code, out, _ = run_cli(["check", "chain_14", "--law", "scott"])
        assert code == 0
        assert out == "[scott-continuity] VERIFIED scope=bank samples=16383\n"

    def test_unexpected_exception_exits_70(self, monkeypatch):
        def boom(args):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(cli, "cmd_check", boom)
        code, out, err = run_cli(["check", "diamond"])
        assert code == 70
        assert out == ""
        assert err == "internal error: RuntimeError: boom second line\n"


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

    def test_residues_without_infinity_is_an_input_error(self):
        code, out, err = run_cli(["analyze", "closed_sets", "kernel",
                                  "--element",
                                  '{"period":1,"residues":[0]}'])
        assert code == 65
        assert out == ""
        assert err == ("input error: infinite natural part requires the "
                       "point at infinity\n")

    def test_bottom_is_the_one_lift_bottom_literal(self, tmp_path):
        path = tmp_path / "lift.json"
        path.write_text('{"kind":"lift","inner":{"kind":"omega_plus_one"}}')
        code, out, err = run_cli(["analyze", str(path), "kernel",
                                  "--element", "bottom"])
        assert (code, err) == (0, "")
        assert out.splitlines()[:3] == ["element: bottom", "approximable: yes",
                                        "kernel: bottom"]
        code, out, err = run_cli(["analyze", str(path), "kernel",
                                  "--element", '{"bottom": true}'])
        assert (code, out) == (65, "")
        assert err == ("input error: lift element literal is 'bottom' or "
                       '{"inner": ...}\n')

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

    @pytest.mark.parametrize("poset, depth", [("closed_sets", "-5"),
                                              ("omega_plus_one", "-3")])
    def test_negative_truncate_is_a_usage_error(self, poset, depth):
        code, out, err = run_cli(["export-dot", poset, "--truncate", depth])
        assert code == 64
        assert out == ""
        assert err == (f"usage error: argument --truncate: must be at least "
                       f"0, got {int(depth)}\n")

    def test_truncate_zero(self):
        code, out, _ = run_cli(["export-dot", "omega_plus_one",
                                "--truncate", "0"])
        assert code == 0
        assert out.count("[label=") == 2

    def test_truncate_rejects_finite_kinds(self):
        code, out, err = run_cli(["export-dot", "diamond", "--waybelow",
                                  "--truncate", "2"])
        assert code == 65
        assert out == ""
        assert err == "error: no truncation for kind 'finite'\n"

    @pytest.mark.parametrize("doc, code, nodes, err", [
        # bottom and the 8 closed sets over {0, 1}
        ('{"kind":"lift","inner":{"kind":"closed_sets"}}', 0, 9, ""),
        ('{"kind":"lift","inner":{"kind":"finite","elements":["a"]}}', 65, 0,
         "error: no truncation for kind 'finite'\n")],
        ids=["lift_closed_sets", "lift_finite"])
    def test_lift_forwards_its_truncation(self, tmp_path, doc, code, nodes,
                                          err):
        path = tmp_path / "lift.json"
        path.write_text(doc)
        result = run_cli(["export-dot", str(path), "--truncate", "1"])
        assert (result[0], result[1].count("[label="), result[2]) == \
            (code, nodes, err)

    def test_wide_sum_hits_the_truncation_cap(self, tmp_path):
        doc = {"kind": "closed_sets"}
        for _ in range(3):
            doc = {"kind": "disjoint_sum", "left": doc, "right": doc}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run_cli(["export-dot", str(path), "--truncate", "6"])
        assert time.perf_counter() - start < 1
        assert code == 65
        assert out == ""
        assert err == ("error: truncation capped at 512 elements, this one "
                       "has 1024\n")

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


# ---------------------------------------------------------------------------
# Every text either parses or is rejected as input (exit 65, never 70)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70)
    | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=4)),
    max_leaves=12)

labels = st.lists(st.sampled_from(["a", "b", "c", "0", "1"]), max_size=4)


def _documents(children):
    return st.fixed_dictionaries(
        {"kind": st.sampled_from([*DOCUMENT_FIELDS, "matroid"])},
        optional={"elements": labels | json_values,
                  "covers": st.lists(labels, max_size=4) | json_values,
                  "inner": children, "left": children, "right": children,
                  "extra": json_values})


documents = st.recursive(_documents(json_values), _documents, max_leaves=6)

closed_literals = st.fixed_dictionaries({}, optional={
    field: st.lists(st.integers(-2, 70), max_size=5) | json_values
    for field in ("finite", "prefix", "residues")} | {
    field: st.integers(-1, 70) | json_values
    for field in ("threshold", "period", "infinity")})

element_literals = st.recursive(
    st.sampled_from(["bottom", "omega", "nat:3", "nat:-1", "nat:+4", "a",
                     "0", "a0", "xy"]) | closed_literals | json_values,
    lambda inner: st.dictionaries(
        st.sampled_from(["inner", "left", "right", "bottom"]), inner,
        min_size=1, max_size=2),
    max_leaves=6)

INPUT_ERRORS = (ParseError, ValidationError)


class TestParsersRejectOnlyWithInputErrors:
    @given(st.text(max_size=40) | json_values.map(json.dumps)
           | documents.map(json.dumps))
    def test_poset_documents(self, text):
        try:
            cli.parse_input(text)
        except INPUT_ERRORS:
            pass

    @pytest.mark.parametrize("P", standard_roster(), ids=lambda P: P.name)
    @given(text=st.text(max_size=20) | element_literals.map(json.dumps))
    def test_element_literals(self, P, text):
        try:
            cli.parse_element_arg(P, text)
        except INPUT_ERRORS:
            pass
