"""CLI contract: parsing, round-trips, command output, DOT, exit codes."""

import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from posetkernel import cli, commands
from posetkernel.carriers import OmegaPlusOnePresentation
from posetkernel.catalog import (DOCUMENT_FIELDS, MAX_DOCUMENT_DEPTH,
                                 MAX_ELEMENTS, CatalogSpec, closed_sets,
                                 disjoint_sum, finite_explicit, finite_named,
                                 finite_random, lift, make_catalog,
                                 omega_plus_one, spec_to_document,
                                 standard_roster)
from posetkernel.errors import ParseError, ValidationError
from posetkernel.kernel import LAWS
from posetkernel.reports import DEFAULT_PAIR_SAMPLES, DEFAULT_SEED, sampled

from conftest import BOWTIE


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

    def test_cyclic_covers_name_the_first_pair_below_each_other(self,
                                                                tmp_path):
        path = tmp_path / "cycle.json"
        path.write_text('{"kind":"finite","elements":["a","b","c"],'
                        '"covers":[["a","b"],["b","c"],["c","a"]]}')
        code, out, err = run_cli(["check", str(path)])
        assert (code, out) == (65, "")
        assert err == ("input error: 'a' and 'b' are mutually below each "
                       "other\n")

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
            commands.parse_element_arg(P, "[" * 3000 + "]" * 3000)

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

    @pytest.mark.parametrize("n", [MAX_ELEMENTS, MAX_ELEMENTS + 1])
    def test_finite_documents_stop_at_the_cap(self, tmp_path, n):
        labels = [str(i) for i in range(n)]
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"kind": "finite", "elements": labels,
                                    "covers": list(zip(labels, labels[1:]))}))
        code, out, err = run_cli(["check", str(path), "--law", "all"])
        if n == MAX_ELEMENTS:
            assert (code, err) == (0, "")
            assert "] SKIPPED" not in out
        else:
            assert (code, out) == (65, "")
            assert err == ("error: a finite document of 513 labels is over "
                           "the cap of 512 elements\n")

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
        assert out == ("[scott-continuity] VERIFIED scope=exhaustive "
                       "samples=16383\n")

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

    def test_quotient_of_sets_whose_lcm_window_is_over_the_cap(self):
        """The lcm of 65521 and 65519 is over ``MAX_WINDOW``, so the order
        codes fall back to pairwise inclusion, which takes no window."""
        code, out, err = run_cli([
            "analyze", "closed_sets", "quotient", "--elements",
            '{"period": 65521, "residues": [0], "infinity": true}',
            '{"period": 65519, "residues": [0], "infinity": true}'])
        assert (code, err) == (0, "")
        assert "classes: 2" in out

    def test_omega_literals(self):
        code, out, _ = run_cli(["analyze", "omega_plus_one", "kernel",
                                "--element", "omega"])
        assert code == 0
        assert "kernel: omega" in out
        code, out, _ = run_cli(["analyze", "omega_plus_one", "kernel",
                                "--element", "nat:4"])
        assert "kernel: 4" in out

    @pytest.mark.parametrize("digits", ["5000000",
                                        "99999999999999999999999"])
    def test_a_large_natural_is_answered_at_once(self, digits, tmp_path):
        # the approximants 0..n are a range, never listed
        code, out, err = run_cli(["analyze", "omega_plus_one", "kernel",
                                  "--element", f"nat:{digits}"])
        assert (code, err) == (0, "")
        assert out == (f"element: {digits}\napproximable: yes\n"
                       f"kernel: {digits}\nin retract: yes\n")
        path = tmp_path / "lift.json"
        path.write_text('{"kind":"lift","inner":{"kind":"omega_plus_one"}}')
        code, out, err = run_cli(["analyze", str(path), "retract",
                                  "--elements",
                                  json.dumps({"inner": f"nat:{digits}"})])
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == f"in retract inner:{digits}: yes"

    @pytest.mark.parametrize("doc, rules", [
        ({"kind": "lift", "inner": {"kind": "closed_sets"}},
         ["inner: for closed sets: if inf is in C then the natural part of "
          "C must be infinite"]),
        ({"kind": "disjoint_sum", "left": {"kind": "omega_plus_one"},
          "right": {"kind": "punctured_closed_sets"}},
         ["right: for closed sets: if inf is in C then the natural part of "
          "C must be infinite (and nonempty overall)"]),
    ], ids=["lift", "sum"])
    def test_combinator_retract_rules_name_their_part(self, doc, rules,
                                                       tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["analyze", str(path), "retract"])
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "retract membership rule: x is approximable and fixed by the "
            "kernel (sup of its approximants)", *rules]

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

    @pytest.mark.parametrize("argv", [
        ["diamond", "retract", "--elements", "a", "zz"],
        ["diamond", "retract", "--elements", "zz", "a"],
        ["closed_sets", "retract", "--elements", '{"finite": [1]}',
         '{"finite": [-1]}'],
        ["lift(closed_sets)", "retract", "--elements", "bottom", "top"],
        ["diamond", "quotient", "--elements", "a", "zz"],
        ["diamond", "kernel", "--element", "zz"],
    ], ids=["retract-finite", "retract-first", "retract-symbolic",
            "retract-lift", "quotient", "kernel"])
    def test_an_input_error_prints_nothing_on_stdout(self, tmp_path, argv):
        poset, *rest = argv
        if poset == "lift(closed_sets)":
            poset = str(tmp_path / "lift.json")
            with open(poset, "w", encoding="utf-8") as handle:
                json.dump(spec_to_document(lift(closed_sets())), handle)
        code, out, err = run_cli(["analyze", poset, *rest])
        assert (code, out) == (65, "")
        assert err.startswith("input error:")

    def test_a_finite_closed_set_literal_takes_no_periodic_fields(self):
        code, out, err = run_cli([
            "analyze", "closed_sets", "kernel", "--element",
            '{"finite": [1], "prefix": [0], "threshold": 1, "period": 3}'])
        assert (code, out) == (65, "")
        assert err == ("input error: 'finite' cannot be combined with "
                       "['period', 'prefix', 'threshold']\n")
        for field, value in (("residues", []), ("threshold", 0)):
            with pytest.raises(ValidationError, match=field):
                commands.parse_element_arg(make_catalog(closed_sets()), json.dumps(
                    {"finite": [], "infinity": True, field: value}))


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

    def test_truncate_draws_a_finite_kind_whole(self):
        whole = run_cli(["export-dot", "diamond", "--waybelow"])
        assert whole[0] == 0
        assert run_cli(["export-dot", "diamond", "--waybelow",
                        "--truncate", "2"]) == whole

    def test_a_kind_without_a_cut_refuses_truncate(self, monkeypatch):
        # every catalog kind has a cut, so take away that of ω+1
        monkeypatch.delattr(OmegaPlusOnePresentation, "truncation")
        assert run_cli(["export-dot", "omega_plus_one", "--truncate", "2"]) \
            == (65, "", "error: no truncation for kind 'omega_plus_one'\n")

    def test_a_sum_with_a_finite_part_is_cut(self, tmp_path):
        # the finite part whole, ω+1 at 2
        path = tmp_path / "sum.json"
        path.write_text(json.dumps({
            "kind": "disjoint_sum",
            "left": {"kind": "finite", "elements": ["0", "1"],
                     "covers": [["0", "1"]]},
            "right": {"kind": "omega_plus_one"}}))
        assert run_cli(["export-dot", str(path), "--truncate", "2"]) == (
            0,
            "digraph poset {\n"
            "  rankdir=BT;\n"
            '  n0 [label="left:0"];\n'
            '  n1 [label="left:1"];\n'
            '  n2 [label="right:0"];\n'
            '  n3 [label="right:1"];\n'
            '  n4 [label="right:2"];\n'
            '  n5 [label="right:omega"];\n'
            "  n0 -> n1;\n"
            "  n2 -> n3;\n"
            "  n3 -> n4;\n"
            "  n4 -> n5;\n"
            "}\n",
            "")

    @pytest.mark.parametrize("doc, code, nodes, err", [
        # bottom and the 8 closed sets over {0, 1}
        ('{"kind":"lift","inner":{"kind":"closed_sets"}}', 0, 9, ""),
        # bottom and the whole finite inner carrier
        ('{"kind":"lift","inner":{"kind":"finite","elements":["a"]}}', 0, 2,
         "")],
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
        assert err == ("error: the disjoint_sum truncation at 6 is over the "
                       "cap of 512 elements\n")

    @pytest.mark.parametrize("poset", ["omega_plus_one", "closed_sets"])
    def test_a_huge_truncation_is_refused_before_it_is_built(self, poset):
        start = time.perf_counter()
        code, out, err = run_cli(["export-dot", poset,
                                  "--truncate", "1000000000"])
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (65, "")
        assert err == (f"error: the {poset} truncation at 1000000000 is over "
                       "the cap of 512 elements\n")

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

    def test_out_file_holds_the_stdout_bytes(self, tmp_path):
        target = tmp_path / "boolean_3.dot"
        code, text, _ = run_cli(["export-dot", "boolean_3", "--waybelow"])
        assert code == 0
        assert run_cli(["export-dot", "boolean_3", "--waybelow", "--out",
                        str(target)]) == (0, "", "")
        assert target.read_bytes() == text.encode()

    @pytest.mark.parametrize("where, reason", [
        ("empty", "No such file or directory"),
        ("missing_dir", "No such file or directory"),
        ("directory", "Is a directory")])
    def test_unwritable_out_is_an_input_error(self, tmp_path, where, reason):
        path = {"empty": "", "missing_dir": str(tmp_path / "no" / "x.dot"),
                "directory": str(tmp_path)}[where]
        code, out, err = run_cli(["export-dot", "diamond", "--out", path])
        assert (code, out) == (65, "")
        assert err == f"input error: cannot write {path!r}: {reason}\n"
        assert list(tmp_path.iterdir()) == []


def _chain_sum_tree(n):
    """A balanced disjoint_sum tree of chain_16 documents, n elements in
    all."""
    if n == 16:
        return spec_to_document(finite_named("chain_16"))
    half = _chain_sum_tree(n // 2)
    return {"kind": "disjoint_sum", "left": half, "right": half}


class TestCombinatorElementCap:
    """A lift or sum lists at most ``MAX_ELEMENTS`` elements: its own
    points plus every element of its finite parts, whether it is finite or
    symbolic.  It is refused when it is built, before any law runs."""

    REASON = ("a disjoint_sum listing 1024 elements is over the cap of 512 "
              "elements")

    @pytest.fixture
    def wide(self, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(_chain_sum_tree(1024)))
        return str(path)

    @pytest.mark.parametrize("argv", [["check", "--law", "all"],
                                      ["check", "--law", "all", "--strict"],
                                      ["export-dot"],
                                      ["export-dot", "--waybelow"],
                                      ["analyze", "retract"]],
                             ids=["check", "check-strict", "export-dot",
                                  "export-dot-waybelow", "analyze-retract"])
    def test_a_wide_finite_tree_exits_65_at_load(self, wide, argv):
        assert run_cli([argv[0], wide, *argv[1:]]) == (
            65, "", f"error: {self.REASON}\n")

    @pytest.mark.parametrize("doc", [
        {"kind": "disjoint_sum", "left": _chain_sum_tree(1024),
         "right": {"kind": "omega_plus_one"}},
        {"kind": "disjoint_sum", "left": _chain_sum_tree(MAX_ELEMENTS),
         "right": {"kind": "disjoint_sum",
                   "left": _chain_sum_tree(MAX_ELEMENTS),
                   "right": {"kind": "omega_plus_one"}}}],
        ids=["finite-part", "symbolic-part"])
    def test_a_symbolic_sum_counts_its_finite_parts(self, tmp_path, doc):
        """Both sums are symbolic; the finite elements they list, in a
        finite part or inside a symbolic one, come to 1024."""
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        result = run_cli(["check", str(path), "--law", "all"])
        assert time.perf_counter() - start < 1
        assert result == (65, "", f"error: {self.REASON}\n")

    def test_strict_counts_a_skipped_law_as_no_verification(self, tmp_path):
        """A skipped law verifies nothing, so with ``--strict`` it exits 2,
        as an all-Unrefuted run does.  The bowtie is not conditionally
        complete, so the subposet law of its sum with ω+1 has no retract
        to check."""
        path = tmp_path / "bowtie_sum.json"
        path.write_text(json.dumps(spec_to_document(
            disjoint_sum(BOWTIE, omega_plus_one()))))
        code, out, err = run_cli(["check", str(path), "--law", "subposet",
                                  "--strict"])
        assert (code, err) == (2, "")
        assert out == ("[subposet] SKIPPED reason=disjoint_sum(finite, "
                       "omega_plus_one): conditional completeness and "
                       "interpolation are neither certified nor "
                       "exhaustively verifiable\n")

    def test_a_symbolic_sum_of_512_elements_checks_cc_quickly(self,
                                                              tmp_path):
        """The sum of the 512-element tree and ω+1 is symbolic; the sampled
        cc law reads its bank of one family per generator of the tree in
        well under a second."""
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "kind": "disjoint_sum", "left": _chain_sum_tree(MAX_ELEMENTS),
            "right": spec_to_document(omega_plus_one())}))
        start = time.perf_counter()
        code, out, err = run_cli(["check", str(path), "--law", "cc"])
        assert time.perf_counter() - start < 1
        assert (code, err) == (0, "")
        assert out == ("[conditionally_complete] VERIFIED scope=sampled("
                       "seed=0xC0FFEE,count=500) samples=4558 reason="
                       "certified for the kind; probes consistent\n")

    def test_a_wide_chain_sum_checks_subposet_quickly(self):
        """``disjoint_sum(chain_256, omega_plus_one)`` has a bank of 32,896
        families, one per generator of the chain; the subposet law scans
        one family per supremum and maximal members, not every family for
        every sampled pair."""
        P = make_catalog(disjoint_sum(finite_named("chain_256"),
                                      omega_plus_one()))
        start = time.perf_counter()
        report = LAWS["subposet"](P, sampled())
        assert time.perf_counter() - start < 3
        assert report.status.name == "UNREFUTED"

    def test_the_cap_admits_512_elements(self, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(_chain_sum_tree(MAX_ELEMENTS)))
        assert len(cli.load_poset(str(path)).elements()) == MAX_ELEMENTS


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
            commands.parse_element_arg(P, text)
        except INPUT_ERRORS:
            pass


# ---------------------------------------------------------------------------
# The command line reads argv as the argparse parser it replaced did


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise cli.UsageError(message)


class _One(argparse.Action):
    """Store a one-value slot.  argparse drops the first "--" among a slot's
    words and stores an empty list when none is left (``--law=--``); the
    CLI refuses that as a usage error, so the reference does too."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values == []:
            raise argparse.ArgumentError(self, "expected one argument")
        setattr(namespace, self.dest, values)


def _int_at_least(low, base=10):
    def parse(text):
        try:
            value = int(text, base)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser ``cli.parse_args`` replaced: the reference for
    what it accepts, the values it gives and its error messages, except
    that a one-value slot left empty is refused (``_One``)."""
    parser = _Parser(prog="posetkernel",
                     description="Law checks, kernels, and retracts on "
                                 "poset presentations.")
    sub = parser.add_subparsers(dest="command")

    check = sub.add_parser("check", help="run law checks")
    check.add_argument("poset", action=_One, help="JSON file or catalog name")
    check.add_argument("--law", action=_One, default="all")
    check.add_argument("--samples", action=_One, type=_int_at_least(1),
                       default=DEFAULT_PAIR_SAMPLES)
    check.add_argument("--seed", action=_One, type=_int_at_least(0, base=0),
                       default=DEFAULT_SEED)
    check.add_argument("--strict", action="store_true")

    analyze = sub.add_parser("analyze", help="kernel / retract / quotient "
                                             "of specific elements")
    analyze.add_argument("poset", action=_One)
    analyze.add_argument("what", action=_One,
                         choices=("kernel", "retract", "quotient"))
    analyze.add_argument("--element", action=_One)
    analyze.add_argument("--elements", nargs="*")

    dot = sub.add_parser("export-dot", help="Hasse diagram as DOT text")
    dot.add_argument("poset", action=_One)
    dot.add_argument("--waybelow", action="store_true")
    dot.add_argument("--truncate", action=_One, type=_int_at_least(0),
                     default=None)
    dot.add_argument("--out", action=_One, default=None)

    selftest = sub.add_parser("selftest", help="run the acceptance matrix")
    group = selftest.add_mutually_exclusive_group()
    group.add_argument("--quick", action="store_true")
    group.add_argument("--full", action="store_true")
    return parser


def reference_parse(argv):
    """("ok", values), ("help", None) or ("error", message) by argparse."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            values = vars(build_parser().parse_args(argv))
    except cli.UsageError as exc:
        return "error", str(exc)
    except SystemExit:
        return "help", None
    if values["command"] is None:
        return "error", ("a command is required (check, analyze, export-dot, "
                         "selftest)")
    return "ok", values


def new_parse(argv):
    try:
        return "ok", vars(cli.parse_args(argv))
    except cli.UsageError as exc:
        return "error", str(exc)
    except cli._Help:
        return "help", None


COMMANDS = ["check", "analyze", "export-dot", "selftest"]
OPTIONS = ["--law", "--samples", "--seed", "--strict", "--element",
           "--elements", "--waybelow", "--truncate", "--out", "--quick",
           "--full", "--help"]
# every prefix of every option, ambiguous ones included
OPTION_WORDS = sorted({opt[:k] for opt in OPTIONS
                       for k in range(3, len(opt) + 1)}
                      | {"--", "-", "-h", "-hh", "-hx", "-x", "--x", "--="})
VALUES = ["0", "1", "7", "-5", "x", "0xC0FFEE", "0x7", "010", "1_0", " 3",
          "-0.5", "", "--", "a b", "-x y", "all", "kernel", "inf", "retract",
          "quotient", "diamond", "closed_sets", "chain_2", "omega",
          "frobnicate"]
words = st.one_of(st.sampled_from(COMMANDS), st.sampled_from(OPTION_WORDS),
                  st.sampled_from(VALUES),
                  st.builds(lambda opt, value: f"{opt}={value}",
                            st.sampled_from(OPTION_WORDS),
                            st.sampled_from(VALUES)))
argvs = st.one_of(
    st.lists(words, max_size=6),
    st.builds(lambda command, rest: [command, *rest],
              st.sampled_from(COMMANDS), st.lists(words, max_size=8)),
    st.builds(lambda head, run, tail: ["analyze", *head, "--elements", *run,
                                       *tail],
              st.lists(words, max_size=2),
              st.lists(st.sampled_from(VALUES), max_size=4),
              st.lists(words, max_size=3)))


class TestArgv:
    @settings(max_examples=500)
    @given(argvs)
    def test_the_parser_reads_argv_as_argparse_did(self, argv):
        assert new_parse(argv) == reference_parse(argv)

    @pytest.mark.parametrize("argv", [
        ["check", "diamond", "--law=kernel", "--sa", "-5"],
        ["check", "--samples", "0", "diamond"],
        ["check", "--seed=x", "diamond"],
        ["check"], ["analyze", "diamond"], ["frobnicate"],
        ["check", "diamond", "extra"], ["check", "diamond", "--law"],
        ["check", "diamond", "--s", "3"],
        ["selftest", "--quick", "--full"],
        ["analyze", "diamond", "--elements", "a", "b", "quotient"],
        ["analyze", "diamond", "quotient", "--elements"],
        ["export-dot", "omega_plus_one", "--tr=3", "--w", "--o", "x.dot"],
        ["check", "--", "diamond"], ["check", "diamond", "--", "--law"],
        ["--x", "check", "diamond"], ["check", "diamond", "--strict=1"],
        ["check", "-hx"], [], ["--"], ["-5"],
        ["check", "diamond", "--law=--"], ["check", "diamond", "--samples=--"],
        ["analyze", "diamond", "kernel", "--element=--"],
        ["export-dot", "diamond", "--out=--"],
        ["analyze", "diamond", "--", "--"],
        ["check", "--law=--"], ["analyze", "diamond", "--", "--", "x"],
    ])
    def test_examples(self, argv):
        assert new_parse(argv) == reference_parse(argv)

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"],
                                      ["check", "-h"], ["analyze", "--help"],
                                      ["export-dot", "x", "-hh"],
                                      ["selftest", "--h"]])
    def test_help_prints_and_exits_0(self, argv):
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        command = argv[0] if argv[0] in COMMANDS else "<command>"
        assert out.startswith(f"usage: posetkernel {command} ")

    @pytest.mark.parametrize("command, options", [
        ("check", ["--law", "--samples", "--seed", "--strict"]),
        ("analyze", ["--element", "--elements"]),
        ("export-dot", ["--waybelow", "--truncate", "--out"]),
        ("selftest", ["--quick", "--full"])])
    def test_the_help_names_every_option(self, command, options):
        assert f"\n  {command} " in run_cli(["-h"])[1]
        usage = run_cli([command, "-h"])[1].splitlines()[0].split()
        assert [word.strip("[]") for word in usage
                if word.startswith("[--")] == options


# The argv words above, an option given "=--", a bare "--" and an empty
# word.  The poset is always diamond, and every number among the words is
# at most 10, so a run of main stays cheap whatever --samples reads.
MAIN_WORDS = st.one_of(words, st.sampled_from(["--", ""]),
                       st.sampled_from(OPTIONS).map(lambda opt: f"{opt}=--"))


class TestMainExits:
    @settings(max_examples=300)
    @given(st.sampled_from(["check", "analyze", "export-dot"]),
           st.lists(MAIN_WORDS, max_size=4))
    @example("check", ["--law=--"])
    @example("check", ["--samples=--"])
    @example("analyze", ["kernel", "--element=--"])
    @example("analyze", ["--", "--"])
    def test_every_argv_ends_in_a_documented_exit(self, command, rest):
        """Whatever the words, ``main`` answers with an exit of the README
        table, never 70, and prints no traceback.  It runs in a fresh
        directory, as ``--out`` may write a file."""
        argv = [command, "diamond", *rest]
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as patch:
            patch.chdir(tmp)
            code, out, err = run_cli(argv)
        assert code in (0, 1, 2, 64, 65), (argv, err)
        assert "Traceback" not in out + err


SRC = Path(cli.__file__).resolve().parents[1]
ATEXIT_PROBE = ("import atexit, gc, sys\n"
                "atexit.register(lambda: print('frozen', gc.get_freeze_count()"
                " > 0, file=sys.stderr))\n"
                "from posetkernel.cli import console_entry\n"
                "console_entry()\n")


class TestConsoleEntry:
    """``console_entry`` is the process: the stdout bytes and exit code of
    in-process ``main``, and a frozen heap at exit."""

    ARGV = pytest.mark.parametrize("argv, code", [
        (["check", "diamond", "--law", "all"], 0),
        (["check", "closed_sets", "--law", "continuity"], 1),
        (["frobnicate"], 64),
        (["check", "<directory>"], 65),
    ], ids=["diamond", "closed_sets", "frobnicate", "unreadable"])

    @staticmethod
    def run(tmp_path, python_argv, argv):
        """The process for ``argv`` and the in-process ``main`` answer."""
        argv = [str(tmp_path) if word == "<directory>" else word
                for word in argv]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, *python_argv, *argv],
                              env=env, capture_output=True, timeout=60)
        return proc, run_cli(argv)

    @ARGV
    def test_the_process_answers_as_main(self, tmp_path, argv, code):
        proc, expected = self.run(tmp_path, ["-c", ATEXIT_PROBE], argv)
        assert (proc.returncode, proc.stdout.decode()) == expected[:2]
        assert expected[0] == code
        assert proc.stderr.decode() == expected[2] + "frozen True\n"

    @ARGV
    def test_python_m_runs_the_console_script(self, tmp_path, argv, code):
        proc, expected = self.run(tmp_path, ["-m", "posetkernel"], argv)
        assert (proc.returncode, proc.stdout.decode(),
                proc.stderr.decode()) == expected
        assert expected[0] == code

    def test_main_leaves_gc_alone(self):
        """Only the process entry freezes the heap; ``main`` runs in-process
        in tests and in the acceptance matrix."""
        before = gc.get_freeze_count()
        assert run_cli(["check", "diamond", "--law", "kernel"])[0] == 0
        assert gc.get_freeze_count() == before and gc.isenabled()
