"""Command-line behavior: subcommands, exit codes, determinism, schema."""

import base64
import json
import pathlib

import jsonschema
import pytest

from nomsub import build_relation, parse_class_table, relation_from_json
from nomsub import relation
from nomsub.cli import main

from nested_tables import INDEX_TABLES, NESTED_TABLES

ROOT = pathlib.Path(__file__).resolve().parents[1]
SAMPLE = str(ROOT / "tables" / "sample.table")
REDUCED = str(ROOT / "tables" / "reduced.table")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_ok(capsys):
    code, out, _ = run(capsys, "check", SAMPLE)
    assert code == 0
    assert out == "ok: 8 classes, root Object\n"


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "nope.table")
    assert code == 2
    assert "error" in err


def test_check_invalid_table(tmp_path, capsys):
    bad = tmp_path / "bad.table"
    bad.write_text("class A extends B\nclass B extends A")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "cycle" in err


def test_subtype_true_and_false_both_exit_zero(capsys):
    code, out, _ = run(capsys, "subtype", SAMPLE, "LinkedList<String>", "List<?>")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "subtype", SAMPLE, "List<?>", "List<String>")
    assert (code, out) == (0, "false\n")


def test_subtype_decides_at_depth_for_deeper_terms(capsys):
    code, out, err = run(capsys, "subtype", SAMPLE,
                         "List<List<String>>", "List<?>")
    assert (code, out) == (0, "true\n")
    assert err == "note: deciding at depth 2 to cover the query terms\n"


def test_subtype_unordered_interval_is_warned_and_rejected(capsys):
    code, _, err = run(capsys, "subtype", SAMPLE,
                       "List<[Object..String]>", "List<?>")
    assert code == 2
    assert "unordered endpoints" in err


def test_unordered_warning_prints_universe_labels(capsys):
    code, out, err = run(capsys, "subtype", SAMPLE, "List<[List<?>..String]>", "Object")
    assert (code, out) == (2, "")
    assert ("warning: interval in 'List<[List<?>..String]>' has unordered endpoints "
            "(List<?> is not a subtype of String)\n") in err


def test_unordered_warning_looks_inside_nested_arguments(capsys):
    code, out, err = run(capsys, "subtype", SAMPLE, "List<List<[Object..String]>>",
                         "Object", "--depth", "2")
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == (
        "warning: interval in 'List<List<[Object..String]>>' has unordered endpoints "
        "(Object is not a subtype of String)")


def test_subtype_names_the_excluded_cofree_atom(capsys):
    code, out, err = run(capsys, "subtype", SAMPLE, "List<!>", "List<?>", "--no-cofree")
    assert (code, out) == (2, "")
    assert err == ("error: 'List<!>' is not in the depth-1 universe "
                   "(co-free atoms are excluded by --no-cofree)\n")


def test_subtype_names_a_nested_excluded_cofree_atom(capsys):
    code, out, err = run(capsys, "subtype", SAMPLE, "List<List<!>>", "List<?>",
                         "--no-cofree")
    assert (code, out) == (2, "")
    assert err == ("error: 'List<List<!>>' is not in the depth-1 universe "
                   "(co-free atoms are excluded by --no-cofree)\n")


def test_cofree_answers_do_not_depend_on_the_depth(capsys, tmp_path):
    # Beta<!> lies below Alpha, the plain superclass of its class, at every
    # depth, so [Beta<!>..Alpha] is an ordered interval of the depth-1 universe
    table = tmp_path / "plain_parent.table"
    table.write_text("class Object\nclass Alpha extends Object\nclass Beta<T> extends Alpha")
    for depth in ("0", "1"):
        code, out, _ = run(capsys, "subtype", str(table), "Beta<!>", "Alpha", "--depth", depth)
        assert (code, out) == (0, "true\n")
    code, out, err = run(capsys, "subtype", str(table), "Beta<[Beta<!>..Alpha]>", "Object",
                         "--depth", "1")
    assert (code, out, err) == (0, "true\n", "")


@pytest.mark.xfail(strict=True, reason="B<C<Str>> is outside the depth-1 universe, so "
                   "A<Str> reaches no B<...> there (CHANGES.md FOUND: closed superclass "
                   "arguments deeper than the stratum below)")
def test_closed_nested_superclass_answers_do_not_depend_on_the_depth(capsys, tmp_path):
    # A<Str>'s superclass B<C<Str>> lies inside B<?>; at depth 2 the
    # answer is true
    table = tmp_path / "closed_nested.table"
    table.write_text("class Object\nclass Str extends Object\nclass C<T> extends Object\n"
                     "class B<T> extends Object\nclass A<T> extends B<C<Str>>")
    code, out, _ = run(capsys, "subtype", str(table), "A<Str>", "B<?>", "--depth", "1")
    assert (code, out) == (0, "true\n")


def test_unordered_warning_judges_the_endpoints_one_level_down(capsys, tmp_path):
    # the depth-2 universe holds B<[L..U]> when L <: U at depth 1, where
    # A<Object>'s superclass B<C<Str>> is too deep to reach, though at
    # depth 2 A<Object> <: B<?> holds
    table = tmp_path / "closed_nested.table"
    table.write_text(INDEX_TABLES["closed_nested"])
    code, out, err = run(capsys, "subtype", str(table), "B<[A<Object>..B<?>]>", "Object",
                         "--depth", "2", "--no-cofree")
    assert (code, out) == (2, "")
    assert err == ("warning: interval in 'B<[A<Object>..B<?>]>' has unordered endpoints "
                   "(A<Object> is not a subtype of B<?>)\n"
                   "error: 'B<[A<Object>..B<?>]>' is not in the depth-2 universe "
                   "(endpoint-unordered intervals are never enumerated)\n")


def test_subtype_answers_beyond_the_row_budget(capsys):
    # the decider answers without building the stratum, which at reduced@4
    # would need 5.0 TB of packed rows
    code, out, err = run(capsys, "subtype", REDUCED,
                         "LinkedList<? extends List<? extends LinkedList<? extends List<String>>>>",
                         "List<? extends List<? extends List<?>>>", "--depth", "4")
    assert (code, out, err) == (0, "true\n", "")
    code, out, err = run(capsys, "subtype", SAMPLE, "LinkedList<String>", "List<?>",
                         "--depth", "1000000")
    assert (code, out, err) == (0, "true\n", "")


def test_closures_below_the_free_types_names_them(capsys):
    code, out, err = run(capsys, "closures", SAMPLE, "--depth", "0")
    assert (code, out) == (2, "")
    assert err == ("error: free type(s) of List, LinkedList, Enum are outside the "
                   "universe; build the relation at depth >= 1\n")
    # without co-free atoms no generic class has a term there, so the laws hold
    code, out, _ = run(capsys, "closures", SAMPLE, "--depth", "0", "--no-cofree")
    assert code == 0
    assert out.startswith("unit violations: 0; counit violations: 0;")


def test_universe_listing_is_sorted_and_deterministic(capsys):
    code, first, _ = run(capsys, "universe", SAMPLE, "--depth", "1")
    assert code == 0
    lines = first.strip().split("\n")
    assert lines == sorted(lines)
    assert "List<?>" in lines and "List<!>" in lines
    code, second, _ = run(capsys, "universe", SAMPLE, "--depth", "1")
    assert second == first


@pytest.mark.parametrize("flags", [[], ["--no-cofree"]])
def test_universe_never_builds_its_top_stratum(capsys, monkeypatch, flags):
    # the labels come from the enumeration: only the strata below get rows
    built, stratum = [], relation._stratum

    def spy(space):
        built.append(space.depth)
        return stratum(space)

    table = parse_class_table(pathlib.Path(SAMPLE).read_text())
    labels = build_relation(table, 2, include_cofree=not flags).labels
    monkeypatch.setattr(relation, "_stratum", spy)
    code, out, _ = run(capsys, "universe", SAMPLE, "--depth", "2", *flags)
    assert code == 0 and out == "".join(f"{label}\n" for label in labels)
    code, out, _ = run(capsys, "universe", SAMPLE, "--depth", "2", "--format", "json", *flags)
    assert code == 0 and json.loads(out) == {"depth": 2, "universe": list(labels)}
    assert built == [0, 1, 0, 1]


def test_galois_text_output(capsys):
    code, out, _ = run(capsys, "galois", SAMPLE)
    assert code == 0
    assert out.startswith("0 violations / 688 pairs")


def test_galois_json_output(capsys):
    code, out, _ = run(capsys, "galois", SAMPLE, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["violations"] == []
    assert doc["checked_pairs"] == 688


def test_closures_exit_zero(capsys):
    code, out, _ = run(capsys, "closures", SAMPLE)
    assert code == 0
    assert "unit violations: 0" in out


def test_build_export_json_round_trips(capsys, sample_table, sample_rel1):
    code, out, _ = run(capsys, "build", SAMPLE, "--export", "json")
    assert code == 0
    assert base64.b64decode(json.loads(out)["edges"]) == sample_rel1.bits.tobytes()
    assert relation_from_json(sample_table, out) == sample_rel1


def test_build_export_dot(capsys):
    code, out, _ = run(capsys, "build", SAMPLE, "--export", "dot", "--depth", "0")
    assert code == 0
    assert out.startswith("digraph subtyping {")
    assert '"Integer" -> "Number";' in out


def test_fixpoint_commands(capsys):
    code, out, _ = run(capsys, "fsub", SAMPLE, "Enum")
    assert code == 0 and "Weekday" in out
    code, out, _ = run(capsys, "fsup", SAMPLE, "List")
    assert code == 0 and "Object" in out
    code, out, _ = run(capsys, "maxima", SAMPLE, "Enum")
    assert code == 0 and "dominates all members: True" in out
    code, out, _ = run(capsys, "minima", SAMPLE, "List")
    assert code == 0 and "below all members: True" in out


def test_validity_modes(capsys):
    for mode in ("ind", "coind"):
        code, out, _ = run(capsys, "validity", SAMPLE, "--mode", mode)
        assert code == 0
        assert "invalid: Enum<Object>" in out


def test_validity_json(capsys):
    code, out, _ = run(capsys, "validity", SAMPLE, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert "Enum<Weekday>" in doc["valid"]
    assert "Enum<Object>" in doc["invalid"]


def test_report_validates_against_shipped_schema(capsys):
    code, out, _ = run(capsys, "report", SAMPLE)
    assert code == 0
    doc = json.loads(out)
    schema = json.loads((ROOT / "schema" / "report.schema.json").read_text())
    jsonschema.validate(doc, schema)
    assert doc["verification_ok"] is True
    assert doc["galois"]["violations"] == []
    assert doc["validity"]["agree"] is True


def test_json_subcommands_agree_with_report(capsys):
    _, out, _ = run(capsys, "report", SAMPLE, "--depth", "1")
    report = json.loads(out)
    code, out, _ = run(capsys, "closures", SAMPLE, "--depth", "1", "--format", "json")
    assert (code, json.loads(out)) == (0, report["closure_laws"])
    assert set(report["fixpoints"]) == {"List", "LinkedList", "Enum"}
    for cls, found in report["fixpoints"].items():
        for command, kind, key in (("fsub", "f-subtypes", "f_subtypes"),
                                   ("fsup", "f-supertypes", "f_supertypes")):
            code, out, _ = run(capsys, command, SAMPLE, cls, "--depth", "1", "--format", "json")
            assert (code, json.loads(out)) == (0, {f"{kind} of {cls}": found[key],
                                                   "count": len(found[key])})
        code, out, _ = run(capsys, "maxima", SAMPLE, cls, "--depth", "1", "--format", "json")
        assert (code, json.loads(out)) == (0, {"maxima": found["maxima"],
                                               "free_type": found["free_type"]})
        code, out, _ = run(capsys, "minima", SAMPLE, cls, "--depth", "1", "--format", "json")
        assert (code, json.loads(out)) == (0, {"minima": found["minima"],
                                               "cofree": found["cofree"]})


def test_report_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "report", SAMPLE)
    _, second, _ = run(capsys, "report", SAMPLE)
    assert first == second


def test_depth_is_limited_only_by_the_row_budget(capsys, tmp_path):
    # reduced@4 would need 5.0 TB of packed rows; the budget stops the build
    # at that stratum, before any of its terms is built
    code, out, err = run(capsys, "universe", REDUCED, "--depth", "4")
    assert (code, out) == (2, "")
    assert err == ("error: universe at depth 4 has 6322915 terms, whose packed rows "
                   "need 4997410713975 bytes, over the budget of 4294967296 bytes\n")
    tiny = tmp_path / "tiny.table"
    tiny.write_text("class Object\nclass String extends Object")
    code, out, _ = run(capsys, "universe", str(tiny), "--depth", "4")
    assert (code, out) == (0, "Null\nObject\nString\n")
    code, _, err = run(capsys, "universe", str(tiny), "--depth", "4",
                       "--no-depth-guard")
    assert code == 2
    assert "unrecognized arguments: --no-depth-guard" in err


@pytest.mark.parametrize("name", sorted(NESTED_TABLES))
def test_galois_violations_print_universe_labels(capsys, tmp_path, name):
    table = tmp_path / f"{name}.table"
    table.write_text(NESTED_TABLES[name])
    _, out, _ = run(capsys, "universe", str(table), "--format", "json")
    universe = set(json.loads(out)["universe"])
    code, out, _ = run(capsys, "galois", str(table), "--format", "json")
    galois = json.loads(out)
    _, out, _ = run(capsys, "report", str(table))
    report = json.loads(out)["galois"]
    assert code == 1 and report == galois
    found = galois["violations"] + galois["cofree_violations"]
    assert found and {v["type"] for v in found} <= universe
    _, out, _ = run(capsys, "galois", str(table))
    printed = [line.split(" vs ")[0].strip() for line in out.splitlines()[1:]]
    assert printed == [v["type"] for v in found]


def test_bad_flag_values(capsys):
    code, _, err = run(capsys, "universe", SAMPLE, "--cap", "200000")
    assert code == 2
    assert "unrecognized arguments: --cap 200000" in err
    code, _, err = run(capsys, "universe", SAMPLE, "--depth", "-1")
    assert code == 2


def test_usage_error_exits_two(capsys):
    assert main(["unknown-command"]) == 2
    assert main([]) == 2


def test_no_cofree_flag(capsys):
    code, out, _ = run(capsys, "universe", SAMPLE, "--no-cofree")
    assert code == 0
    assert "List<!>" not in out


def test_report_without_cofree_extension(capsys):
    code, out, _ = run(capsys, "report", SAMPLE, "--no-cofree")
    assert code == 0
    doc = json.loads(out)
    assert doc["verification_ok"] is True
    assert doc["fixpoints"]["List"]["cofree"] == {"is_member": False,
                                                  "is_least": False}


def test_type_syntax_error_exits_two(capsys):
    code, _, err = run(capsys, "subtype", SAMPLE, "List<", "List<?>")
    assert code == 2
    assert "error" in err


def test_report_has_no_mode_flag(capsys):
    # the report always carries both validity modes
    code, out, err = run(capsys, "report", SAMPLE, "--mode", "coind")
    assert code == 2
    assert out == ""


def test_report_at_depth_two(capsys):
    code, out, _ = run(capsys, "report", SAMPLE, "--depth", "2")
    assert code == 0
    doc = json.loads(out)
    schema = json.loads((ROOT / "schema" / "report.schema.json").read_text())
    jsonschema.validate(doc, schema)
    assert doc["verification_ok"] is True
    for mode in ("inductive", "coinductive"):
        assert "Enum<Weekday>" in doc["validity"][mode]["valid"]
        assert "Enum<Object>" not in doc["validity"][mode]["valid"]


def test_validity_bound_deeper_than_one_level_up_exits_two(capsys, tmp_path):
    table = tmp_path / "deep_bound.table"
    table.write_text("class Object\n"
                     "class List<T> extends Object\n"
                     "class Foo<T extends List<List<List<T>>>> extends Object")
    code, out, err = run(capsys, "validity", str(table), "--depth", "1")
    assert code == 2
    assert out == ""
    assert "outside the depth-2 universe" in err


# main builds its argument parser once per process; each call must still start
# from the defaults and write to the streams of that call


def test_flags_do_not_carry_over_between_calls(capsys):
    _, out, _ = run(capsys, "report", SAMPLE, "--no-cofree")
    assert json.loads(out)["include_cofree"] is False
    _, out, _ = run(capsys, "report", SAMPLE)
    assert json.loads(out)["include_cofree"] is True


def test_quantify_does_not_carry_over_between_calls(capsys):
    _, out, _ = run(capsys, "report", SAMPLE, "--quantify", "valid")
    assert json.loads(out)["galois"]["quantified_over"] == "valid"
    _, out, _ = run(capsys, "report", SAMPLE)
    assert json.loads(out)["galois"]["quantified_over"] == "admittable"


def test_usage_error_goes_to_the_stderr_of_each_call(capsys):
    for _ in range(2):
        code, out, err = run(capsys, "universe")
        assert (code, out) == (2, "")
        assert err.startswith("usage: nomsub universe")
        assert "the following arguments are required: table" in err


def test_help_exits_zero_on_each_call(capsys):
    for _ in range(2):
        code, out, err = run(capsys, "--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: nomsub")
