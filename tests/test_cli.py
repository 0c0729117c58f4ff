import json
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from conftest import (
    algebra_json,
    cyclic_group,
    load_entry_variety,
    make_algebra,
    make_variety,
    serialize_variety,
)
from freealg.certify import classify_action_signature, restrict_to_part
from freealg.cli import main
from freealg.finalg import one_element_algebra


SCHEMA = json.loads(
    resources.files("freealg").joinpath("data/report.schema.json").read_text()
)


def corpus_path(name: str) -> str:
    return str(resources.files("freealg").joinpath(f"data/corpus/{name}"))


def validate_report(path: Path):
    data = json.loads(path.read_text())
    jsonschema.validate(data, SCHEMA)
    return data


def test_free_comm_idem(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["free", corpus_path("comm-idem-semigroups.var"), "elem=3", "--json", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "|elem| = 7" in text
    data = validate_report(out)
    assert data["status"] == "saturated"
    assert data["sizes"] == {"elem": 7}
    assert data["total_size"] == 7
    assert sum(r["instances"] for r in data["stats"]["rounds"]) > 0


def test_free_empty_profile(capsys):
    code = main(["free", corpus_path("sets.var"), "elem=0"])
    assert code == 0
    assert "|elem| = 0" in capsys.readouterr().out


def test_free_budget_exceeded(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(
        [
            "free",
            corpus_path("automata.var"),
            "in=1,state=1,out=1",
            "--budget-rounds",
            "16",
            "--json",
            str(out),
        ]
    )
    assert code == 2
    data = validate_report(out)
    assert data["status"] == "budget_exceeded"
    assert data["limit"] == "rounds"


def test_free_generators_above_the_class_cap_trip_at_once(tmp_path, capsys):
    # no generator is made: a profile this large would take hours to make
    out = tmp_path / "r.json"
    args = ["free", corpus_path("sets.var"), "elem=99999999999999999999999"]
    t0 = time.perf_counter()
    code = main(args + ["--budget-classes", "10", "--json", str(out)])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    data = validate_report(out)
    assert data["status"] == "budget_exceeded"
    assert (data["limit"], data["rounds"], data["stats"]) == ("classes", 0, {"rounds": []})
    assert data["classes"] == 99999999999999999999999
    assert data["profile"] == "elem=99999999999999999999999"
    assert "rounds: 0" in capsys.readouterr().out


def test_free_negative_count_is_an_error_above_the_class_cap(capsys):
    code = main(["free", corpus_path("setcoup.var"), "a=-1,b=20", "--budget-classes", "10"])
    assert code == 1
    assert "negative generator count for sort 'a'" in capsys.readouterr().err


def test_free_bad_profile(capsys):
    code = main(["free", corpus_path("sets.var"), "nosuch=2"])
    assert code == 1
    assert "nosuch" in capsys.readouterr().err


def test_free_parse_error_location(tmp_path, capsys):
    bad = tmp_path / "bad.var"
    bad.write_text("(signature (sort elem)\n(variety broken)")
    code = main(["free", str(bad), "elem=1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_free_variety_file_not_in_utf8(tmp_path, capsys):
    bad = tmp_path / "latin1.var"
    bad.write_bytes("; caf\u00e9\n".encode("latin-1") + Path(corpus_path("sets.var")).read_bytes())
    code = main(["free", str(bad), "elem=1"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_certify_boolean(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(
        [
            "certify",
            corpus_path("boolean-groups.var"),
            corpus_path("boolean-groups.cert"),
            "--json",
            str(out),
        ]
    )
    assert code == 0
    data = validate_report(out)
    assert data["status"] == "certified"
    assert data["rank"] == 3


def test_certify_rank_override_downward(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        [
            "certify",
            corpus_path("boolean-groups.var"),
            corpus_path("boolean-groups.cert"),
            "--rank",
            "2",
            "--json",
            str(out),
        ]
    )
    assert code == 0
    assert validate_report(out)["rank"] == 2


def test_certify_rank_override_below_two_is_an_input_error(capsys):
    code = main(
        ["certify", corpus_path("boolean-groups.var"), corpus_path("boolean-groups.cert"), "--rank", "1"]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: fujiwara certificates need rank >= 2\n"


def test_certify_degenerate_witness(tmp_path, capsys):
    cert = tmp_path / "bad.cert"
    cert.write_text(
        "(certificate fujiwara (rank 2)\n"
        "  (axiom ((x1 elem) (x2 elem)) (= x1 x2)))\n"
    )
    code = main(["certify", corpus_path("comm-idem-semigroups.var"), str(cert)])
    assert code == 2
    assert "degenerate" in capsys.readouterr().out


def test_certify_per_sort(tmp_path, capsys):
    # general semigroup actions: left-zero witness for the semigroup sort,
    # trivial action witness for the set sort
    var, cert, out = tmp_path / "actions.var", tmp_path / "actions.cert", tmp_path / "r.json"
    var.write_text(
        "(signature (sort s) (sort el) (op mul (s s) s) (op act (s el) el))\n"
        "(variety semigroup-actions\n"
        "  (axiom ((x s) (y s) (z s)) (= (mul (mul x y) z) (mul x (mul y z))))\n"
        "  (axiom ((x s) (y s) (u el)) (= (act (mul x y) u) (act x (act y u)))))\n"
    )
    cert.write_text(
        "(certificate per-sort\n"
        "  (sort s (rank 2) (axiom ((x s) (y s)) (= (mul x y) x)))\n"
        "  (sort el (rank 2) (axiom ((x s) (u el)) (= (act x u) u))))\n"
    )
    assert main(["certify", str(var), str(cert), "--json", str(out)]) == 0
    assert "semigroup-actions: certified (rank 2)" in capsys.readouterr().out
    data = validate_report(out)
    assert (data["status"], data["route"], data["rank"]) == ("certified", "per-sort", 2)
    assert data["nondegeneracy"] == {"s": "nondegenerate", "el": "nondegenerate"}


def test_certify_action_split(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(
        [
            "certify",
            corpus_path("group-reps-trivial-f2.var"),
            corpus_path("group-reps-trivial-f2.cert"),
            "--json",
            str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "assumption:" in stdout
    data = validate_report(out)
    assert data["status"] == "certified_conditional"
    assert len(data["assumptions"]) == 2


def test_check_z2_and_z4(tmp_path, capsys):
    v = load_entry_variety("boolean-groups")
    z2 = tmp_path / "z2.alg.json"
    z2.write_text(json.dumps(algebra_json(cyclic_group(v.sig, 2))))
    assert main(["check", corpus_path("boolean-groups.var"), str(z2)]) == 0
    z4 = tmp_path / "z4.alg.json"
    z4.write_text(json.dumps(algebra_json(cyclic_group(v.sig, 4))))
    out = tmp_path / "r.json"
    code = main(["check", corpus_path("boolean-groups.var"), str(z4), "--json", str(out)])
    assert code == 3
    data = validate_report(out)
    assert data["status"] == "counterexample"
    assert data["assignment"] == {"x": 1}


def test_check_empty_carrier_vacuous(tmp_path):
    alg = tmp_path / "empty.alg.json"
    alg.write_text(json.dumps({"carriers": {"elem": 0}, "tables": {"mul": []}}))
    assert main(["check", corpus_path("comm-idem-semigroups.var"), str(alg)]) == 0


MALFORMED_ALGEBRAS = {
    "entry-not-an-object": {"carriers": {"elem": 1}, "tables": {"mul": [[0]], "inv": [[0]], "e": [[0]]}},
    "tables-not-an-object": {"carriers": {"elem": 1}, "tables": 5},
    "top-level-array": [{"carriers": {"elem": 1}}],
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_ALGEBRAS))
def test_check_rejects_malformed_algebra(tmp_path, capsys, shape):
    alg = tmp_path / "bad.alg.json"
    alg.write_text(json.dumps(MALFORMED_ALGEBRAS[shape]))
    assert main(["check", corpus_path("boolean-groups.var"), str(alg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_check_rejects_a_table_for_an_unknown_op(tmp_path, capsys):
    v = load_entry_variety("boolean-groups")
    data = algebra_json(cyclic_group(v.sig, 2))
    data["tables"]["bogus"] = []
    alg = tmp_path / "bogus.alg.json"
    alg.write_text(json.dumps(data))
    assert main(["check", corpus_path("boolean-groups.var"), str(alg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'bogus'" in err and "Traceback" not in err


def test_check_takes_json_but_no_budget_flags(tmp_path, capsys):
    v = load_entry_variety("boolean-groups")
    z2 = tmp_path / "z2.alg.json"
    z2.write_text(json.dumps(algebra_json(cyclic_group(v.sig, 2))))
    with pytest.raises(SystemExit) as refused:
        main(["check", corpus_path("boolean-groups.var"), str(z2), "--budget-rounds", "0"])
    assert refused.value.code == 2
    assert "--budget-rounds" in capsys.readouterr().err
    out = tmp_path / "r.json"
    assert main(["check", corpus_path("boolean-groups.var"), str(z2), "--json", str(out)]) == 0
    assert validate_report(out)["status"] == "satisfied"


def test_corpus_single_entry(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["corpus", "setcoup", "--json", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "setcoup swap demo" in stdout
    data = validate_report(out)
    assert data["ok"] is True
    assert data["setcoup_demo"]["morphisms_checked"] == 3600


def test_corpus_unknown_entry(capsys):
    code = main(["corpus", "no-such-thing"])
    assert code == 1
    out, err = capsys.readouterr()
    assert err.startswith("error:") and out == ""
    assert "available" in err and "boolean-groups" in err


def test_internal_key_error_is_not_an_input_error(monkeypatch, capsys):
    def broken(name, budget):
        raise KeyError("internal")

    monkeypatch.setattr("freealg.corpus.run_entry", broken)
    with pytest.raises(KeyError):
        main(["corpus", "sets"])
    assert "error: 'internal'" not in capsys.readouterr().err


def test_internal_value_error_is_not_an_input_error(monkeypatch, capsys):
    def broken(name, budget):
        raise ValueError("internal")

    monkeypatch.setattr("freealg.corpus.run_entry", broken)
    with pytest.raises(ValueError):
        main(["corpus", "sets"])
    assert "error: internal" not in capsys.readouterr().err


def test_check_identity_with_24_variables(tmp_path):
    names = [f"x{i}" for i in range(1, 25)]

    def chain(xs):
        return xs[-1] if len(xs) == 1 else f"(mul {xs[0]} {chain(xs[1:])})"

    v = make_variety(
        ["elem"],
        [("mul", ["elem", "elem"], "elem")],
        "reversed-chains",
        [([(x, "elem") for x in names], chain(names), chain(names[::-1]))],
    )
    var = tmp_path / "chains.var"
    var.write_text(serialize_variety(v))
    alg = tmp_path / "one.alg.json"
    alg.write_text(json.dumps(algebra_json(one_element_algebra(v.sig))))
    assert main(["check", str(var), str(alg)]) == 0


def test_corpus_filter(capsys):
    code = main(["corpus", "--filter", "left-zero"])
    assert code == 0
    assert "left-zero" in capsys.readouterr().out


def test_corpus_named_and_filtered_entry_runs_once(capsys):
    code = main(["corpus", "left-zero", "--filter", "left-zero"])
    assert code == 0
    assert capsys.readouterr().out.count("] left-zero:") == 1


def test_corpus_filter_without_match_is_an_error(capsys):
    code = main(["corpus", "--filter", "zzz-no-such"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "available" in captured.err
    assert "boolean-groups" in captured.err
    assert captured.out == ""


def _with_section(cert_name: str, section: str) -> str:
    """A corpus certificate's text with one more section at its end."""
    text = Path(corpus_path(cert_name)).read_text()
    return text.rstrip()[:-1] + f"\n  {section})\n"


@pytest.mark.parametrize("form", ["(sample-h1)", "(sample-h1 a.alg.json b.alg.json)"])
def test_certify_malformed_sample_h1(tmp_path, capsys, form):
    cert = tmp_path / "bad.cert"
    cert.write_text(_with_section("group-reps-trivial-f2.cert", form))
    code = main(["certify", corpus_path("group-reps-trivial-f2.var"), str(cert)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sample-h1" in err and "Traceback" not in err


@pytest.mark.parametrize("form", ["x", "()", "((a) b)"])
def test_certify_names_a_stray_action_split_form(tmp_path, capsys, form):
    cert = tmp_path / "stray.cert"
    text = _with_section("semigroup-actions-trivial.cert", form)
    cert.write_text(text)
    assert main(["certify", corpus_path("semigroup-actions-trivial.var"), str(cert)]) == 1
    line = text.count("\n")  # the form opens the last line, after two spaces
    assert capsys.readouterr().err == f"error: {line}:2: unknown action-split section '{form}'\n"


def test_first_sort_axiom_may_declare_an_unused_second_sort_variable(tmp_path, capsys):
    # the unused variable is dropped when the route selects the axiom, which
    # leaves the identity as strong or stronger, so the same witness covers it
    text = Path(corpus_path("semigroup-actions-trivial.var")).read_text()
    declared = "(axiom ((x s) (y s) (z s))"
    assert text.count(declared) == 1
    variety = tmp_path / "unused.var"
    variety.write_text(text.replace(declared, "(axiom ((x s) (y s) (z s) (v el))"))
    cert = corpus_path("semigroup-actions-trivial.cert")
    reports = []
    for var in (str(variety), corpus_path("semigroup-actions-trivial.var")):
        out = tmp_path / "r.json"
        assert main(["certify", var, cert, "--json", str(out)]) == 0
        data = validate_report(out)
        data.pop("timings")
        reports.append(data)
    assert reports[0] == reports[1]


def test_repeated_axiom_variable_is_reported_at_its_list(tmp_path, capsys):
    variety = tmp_path / "twice.var"
    variety.write_text(
        "(signature (sort elem) (op mul (elem elem) elem))\n"
        "(variety twice\n"
        "  (axiom ((x elem) (x elem)) (= x x)))\n"
    )
    assert main(["free", str(variety), "elem=1"]) == 1
    assert capsys.readouterr().err == "error: 3:9: duplicate variable name 'x'\n"


@pytest.mark.parametrize(
    "sample,code,status",
    [
        ("left-zero", 0, "certified_conditional"),
        # (x y) z = x but x (y z) = 1 - x: the assembled algebra is not a semigroup
        ("not-associative", 2, "unknown"),
    ],
)
def test_certify_action_split_with_sample_h1(tmp_path, capsys, sample, code, status):
    mul = {"left-zero": lambda x, y: x, "not-associative": lambda x, y: 1 - x}[sample]
    v = load_entry_variety("semigroup-actions-trivial")
    split = classify_action_signature(v.sig)
    sub1 = restrict_to_part(v.sig, split, 1)
    (tmp_path / "h1.alg.json").write_text(
        json.dumps(algebra_json(make_algebra(sub1, {"s": 2}, {"mul": mul})))
    )
    cert = tmp_path / "sample.cert"
    cert.write_text(_with_section("semigroup-actions-trivial.cert", "(sample-h1 h1.alg.json)"))
    out = tmp_path / "r.json"
    args = ["certify", corpus_path("semigroup-actions-trivial.var"), str(cert), "--json", str(out)]
    assert main(args) == code
    data = validate_report(out)
    assert data["status"] == status
    # the sort-2 sweep runs before the assembly check, so both reports carry it
    assert data["nondegeneracy"] == {"s": "nondegenerate", "el": "nondegenerate"}
    assert [p["counts"] for p in data["profiles"]] == [[n] for n in range(4)] * 2
    if status == "unknown":
        assert "assembled trivial-action algebra violates" in data["detail"]
        assert data["assumptions"] == []


def _algebra_with_repeated_entry() -> str:
    data = algebra_json(cyclic_group(load_entry_variety("boolean-groups").sig, 2))
    data["tables"]["mul"].append({"args": [0, 0], "result": 1})
    return json.dumps(data)


REPEATED_ENTRIES = {
    "profile-sort": ("free", "boolean-groups.var", None, lambda: "elem=2,elem=3"),
    "per-sort-witness": (
        "certify",
        "boolean-groups.var",
        "twice.cert",
        lambda: "(certificate per-sort (sort elem (rank 2)) (sort elem (rank 3)))",
    ),
    "action-split-section": (
        "certify",
        "semigroup-actions-trivial.var",
        "twice.cert",
        lambda: _with_section("semigroup-actions-trivial.cert", "(s-term (w) w)"),
    ),
    "algebra-table-entry": (
        "check",
        "boolean-groups.var",
        "twice.alg.json",
        _algebra_with_repeated_entry,
    ),
}


@pytest.mark.parametrize("case", sorted(REPEATED_ENTRIES))
def test_repeated_entry_is_an_error(tmp_path, capsys, case):
    # a repeated entry is refused, never overridden by the later one
    command, variety, filename, text = REPEATED_ENTRIES[case]
    arg = text()
    if filename is not None:
        (tmp_path / filename).write_text(arg)
        arg = str(tmp_path / filename)
    assert main([command, corpus_path(variety), arg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "twice" in err and "Traceback" not in err


def _algebra_with_repeated_carrier_key() -> str:
    # boolean-groups has one sort; the JSON names its carrier twice
    text = json.dumps(algebra_json(cyclic_group(load_entry_variety("boolean-groups").sig, 2)))
    return text.replace('"carriers": {"elem": 2}', '"carriers": {"elem": 1, "elem": 2}', 1)


MISSPELLED = "(axoim ((x elem)) (= (mul x x) (e)))"

# inputs with a part that a reader could drop or override without a word
UNREADABLE_INPUTS = {
    "fujiwara-body": (
        "boolean-groups.var",
        "bad.cert",
        lambda: f"(certificate fujiwara (rank 2) {MISSPELLED})",
        "axoim",
    ),
    "per-sort-entry": (
        "boolean-groups.var",
        "bad.cert",
        lambda: f"(certificate per-sort (sort elem (rank 2) {MISSPELLED}))",
        "axoim",
    ),
    "sort1-witness": (
        "semigroup-actions-trivial.var",
        "bad.cert",
        lambda: Path(corpus_path("semigroup-actions-trivial.cert")).read_text().replace(
            "(sort1-witness", "(sort1-witness (axoim ((x s)) (= x x))", 1
        ),
        "axoim",
    ),
    "sort2-axioms": (
        "semigroup-actions-trivial.var",
        "bad.cert",
        lambda: Path(corpus_path("semigroup-actions-trivial.cert")).read_text().replace(
            "(sort2-axioms", "(sort2-axioms rank", 1
        ),
        "'rank'",
    ),
    "algebra-json-key": (
        "boolean-groups.var",
        "twice.alg.json",
        _algebra_with_repeated_carrier_key,
        "'elem' twice",
    ),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_unreadable_input_is_an_error(tmp_path, capsys, case):
    variety, filename, text, named = UNREADABLE_INPUTS[case]
    path = tmp_path / filename
    path.write_text(text())
    command = "check" if filename.endswith(".json") else "certify"
    assert main([command, corpus_path(variety), str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and "Traceback" not in err


DEEP_TERM = "(f " * 1200 + "x" + ")" * 1200

# inputs nested past the interpreter's recursion limit
DEEP_INPUTS = {
    "term": (
        "deep.var",
        "(signature (sort elem) (op f (elem) elem))\n"
        f"(variety deep (axiom ((x elem)) (= {DEEP_TERM} x)))\n",
        lambda path: ["free", path, "elem=1"],
    ),
    "json": (
        "deep.alg.json",
        "[" * 100_000,
        lambda path: ["check", corpus_path("boolean-groups.var"), path],
    ),
}


@pytest.mark.parametrize("case", sorted(DEEP_INPUTS))
def test_deeply_nested_input_is_an_error(tmp_path, capsys, case):
    filename, text, args = DEEP_INPUTS[case]
    path = tmp_path / filename
    path.write_text(text)
    assert main(args(str(path))) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nests too deeply" in err


def test_env_budget(monkeypatch, capsys):
    monkeypatch.setenv("VF_BUDGET_ROUNDS", "12")
    code = main(["free", corpus_path("automata.var"), "in=1,state=1,out=1"])
    assert code == 2
    assert "rounds: 12" in capsys.readouterr().out


def test_flag_overrides_env(monkeypatch, capsys):
    monkeypatch.setenv("VF_BUDGET_ROUNDS", "12")
    code = main(
        ["free", corpus_path("automata.var"), "in=1,state=1,out=1", "--budget-rounds", "9"]
    )
    assert code == 2
    assert "rounds: 9" in capsys.readouterr().out


def test_zero_budget_flag_is_rejected(capsys):
    code = main(
        ["free", corpus_path("automata.var"), "in=1,state=1,out=1", "--budget-rounds", "0"]
    )
    assert code == 1
    assert "budget limits must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("env", ["VF_BUDGET_CLASSES", "VF_BUDGET_ROUNDS"])
def test_non_integer_budget_env_names_the_variable(monkeypatch, capsys, env):
    monkeypatch.setenv(env, "x")
    assert main(["corpus", "sets"]) == 1
    assert capsys.readouterr().err == f"error: {env} must be an integer, not 'x'\n"


def test_zero_budget_env_is_rejected(monkeypatch, capsys):
    monkeypatch.setenv("VF_BUDGET_CLASSES", "0")
    code = main(["free", corpus_path("automata.var"), "in=1,state=1,out=1"])
    assert code == 1
    assert "budget limits must be positive" in capsys.readouterr().err


def test_max_reps_must_not_be_negative(tmp_path, capsys):
    out = tmp_path / "r.json"
    args = ["free", corpus_path("boolean-groups.var"), "elem=2", "--json", str(out)]
    assert main(args + ["--max-reps", "-1"]) == 1
    assert "--max-reps" in capsys.readouterr().err
    assert not out.exists()
    assert main(args + ["--max-reps", "0"]) == 0
    assert validate_report(out)["representatives"] == {"elem": []}


def test_max_reps_caps_each_sort_alike_in_text_and_json(tmp_path, capsys):
    out = tmp_path / "r.json"
    args = ["free", corpus_path("graphs.var"), "edge=2,vertex=1", "--max-reps", "2"]
    assert main(args + ["--json", str(out)]) == 0
    reps = validate_report(out)["representatives"]
    assert {name: len(col) for name, col in reps.items()} == {"edge": 2, "vertex": 2}
    printed = {"edge": [], "vertex": []}
    for line in capsys.readouterr().out.splitlines():
        name, _, rep = line.strip().partition(": ")
        if name in printed:
            printed[name].append(rep)
    assert printed == reps


def test_reports_are_bit_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert (
            main(["free", corpus_path("boolean-groups.var"), "elem=2", "--json", str(out)]) == 0
        )
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da.pop("timings")
    db.pop("timings")
    assert da == db


def test_roundtrip_through_cli(tmp_path, capsys):
    v = load_entry_variety("boolean-groups")
    f = tmp_path / "roundtrip.var"
    f.write_text(serialize_variety(v))
    code = main(["free", str(f), "elem=2"])
    assert code == 0
    assert "|elem| = 4" in capsys.readouterr().out
