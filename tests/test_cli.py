"""Tests for generator-file parsing, report emission, and the CLI."""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import plinth.cli as cli_module
from plinth.cli import (
    VerificationReport,
    data_path,
    emit_report,
    main,
    parse_generators,
    run_case,
)
from plinth.errors import NotBijection, ParseError, PlinthError, Unrecognized
from plinth.perm import Permutation


# ---------------------------------------------------------------------------
# generator files


def _write_generators(path, degree, generators):
    """A generator file in cycle notation, one generator a line."""
    lines = [f"degree {degree}"] + [f"gen {g.cycle_string()}" for g in generators]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_parse_simple_transposition(tmp_path):
    p = tmp_path / "t.gens"
    p.write_text("degree 3\ngen (1,2)\n")
    gf = parse_generators(str(p))
    assert gf.degree == 3
    assert len(gf.generators) == 1
    g = gf.generators[0]
    assert g(0) == 1 and g(1) == 0 and g(2) == 2


def test_parse_image_list_notation(tmp_path):
    p = tmp_path / "t.gens"
    p.write_text("degree 3\ngen [2,1,3]\n")
    gf = parse_generators(str(p))
    assert gf.generators[0](0) == 1


def test_round_trip_byte_stable(tmp_path):
    text = "degree 5\ngen (1,2,3)\ngen (4,5)\n"
    p = tmp_path / "t.gens"
    p.write_text(text)
    G = parse_generators(str(p))
    q = tmp_path / "u.gens"
    _write_generators(q, G.degree, G.generators)
    assert q.read_text() == text


def test_order_line_is_unrecognized(tmp_path):
    # the suite works out every order itself; a file claims none
    p = tmp_path / "t.gens"
    p.write_text("degree 3\ngen (1,2)\norder 2\n")
    with pytest.raises(ParseError, match="unrecognized line 'order 2'") as exc:
        parse_generators(str(p))
    assert exc.value.line == 3


def test_malformed_cycle_raises_with_line(tmp_path):
    p = tmp_path / "t.gens"
    p.write_text("degree 3\ngen (1,2\n")
    with pytest.raises(ParseError) as exc:
        parse_generators(str(p))
    assert exc.value.line == 2


def test_repeated_point_raises_not_bijection(tmp_path):
    p = tmp_path / "t.gens"
    p.write_text("degree 4\ngen (1,2)(2,3)\n")
    with pytest.raises(NotBijection):
        parse_generators(str(p))


def test_out_of_range_point(tmp_path):
    p = tmp_path / "t.gens"
    p.write_text("degree 3\ngen (1,4)\n")
    with pytest.raises(ParseError):
        parse_generators(str(p))


def test_comments_and_blank_lines_ignored(tmp_path):
    p = tmp_path / "t.gens"
    p.write_text("# header\n\ndegree 3\n# mid\ngen (1,2)\n")
    assert parse_generators(str(p)).degree == 3


def test_repeated_degree_line_raises_with_line(tmp_path):
    # generators parsed before a second degree line would keep the old one
    p = tmp_path / "t.gens"
    p.write_text("degree 3\ngen (1,2)\ndegree 4\ngen (1,4)\n")
    with pytest.raises(ParseError) as exc:
        parse_generators(str(p))
    assert exc.value.line == 3


def test_degree_above_cap_raises_before_allocating(tmp_path):
    from plinth.actions import PRODUCT_DEGREE_CAP

    p = tmp_path / "t.gens"
    p.write_text(f"degree {PRODUCT_DEGREE_CAP + 1}\ngen (1,2)\n")
    with pytest.raises(ParseError) as exc:
        parse_generators(str(p))
    assert exc.value.line == 1


@pytest.mark.parametrize(
    "text,line",
    [
        # an image list without its closing bracket
        (b"degree 2\ngen [2,1x\n", 2),
        (b"degree 2\ngen [2,1)\n", 2),
        # trailing fields after a count
        (b"degree 3 junk\n", 1),
        (b"degree 3\norder 5 junk\n", 2),
        (b"degree 3\norder -5\n", 2),
        (b"degree 3\norder 0\n", 2),
        # an image too large for a machine integer
        (b"degree 2\ngen [99999999999999999999999,1]\n", 2),
        (b"degree 2\n# ok\n\xff\n", 3),
        # integers are ASCII digits only: no underscores, signs or other digits
        (b"degree 1_0\n", 1),
        (b"degree 3\norder +5\n", 2),
        (b"degree 3\ngen (+1,2)\n", 2),
        ("degree 3\ngen (1,\u0663)\n".encode("utf-8"), 2),
        (b"degree 2\ngen [+2,1]\n", 2),
    ],
)
def test_malformed_lines_raise_parse_error_with_line(tmp_path, text, line):
    p = tmp_path / "t.gens"
    p.write_bytes(text)
    with pytest.raises(ParseError) as exc:
        parse_generators(str(p))
    assert exc.value.line == line


@pytest.mark.parametrize(
    "text",
    [b"degree 2\ngen [99999999999999999999999,1]\n", b"degree 2\n\xff\n"],
)
def test_cli_unparsable_generator_file_exits_3(tmp_path, capsys, text):
    p = tmp_path / "m12.gens"
    p.write_bytes(text)
    assert main(["verify", "m12", "--data", str(p)]) == 3
    assert capsys.readouterr().err.startswith("error: line 2:")


@st.composite
def generator_lists(draw):
    degree = draw(st.integers(1, 9))
    gens = draw(
        st.lists(
            st.permutations(range(degree)).map(
                lambda t: Permutation(np.array(t, dtype=np.int64))
            ),
            max_size=4,
        )
    )
    return degree, gens


@settings(max_examples=60, deadline=None)
@given(generator_lists())
def test_cycle_string_parse_round_trip(drawn):
    degree, gens = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.gens")
        _write_generators(path, degree, gens)
        back = parse_generators(path)
    assert back.degree == degree
    assert back.generators == gens


_FRAGMENTS = st.sampled_from(
    ["degree ", "gen ", "order ", "(", ")", "[", "]", ",", "#", " ", "\n",
     "-", "0", "1", "2", "3", "99999999999999999999999", "x"]
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=64),
        st.text(max_size=64).map(lambda s: s.encode("utf-8")),
        st.lists(_FRAGMENTS, max_size=24).map(
            lambda parts: "".join(parts).encode("utf-8")
        ),
    )
)
def test_arbitrary_input_raises_only_plinth_errors(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.gens")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            parse_generators(path)
        except PlinthError:
            pass


def test_shipped_m12_file_validates():
    G = parse_generators(data_path("m12.gens"))
    assert G.degree == 12
    assert len(G.generators) == 2
    assert G.order() == 95040


# ---------------------------------------------------------------------------
# reports


def make_report():
    r = VerificationReport("demo", 1)
    r.add("a", 1, 1, "anchor A")
    r.add("b", True, True, "anchor B")
    return r


def test_report_status_rules():
    r = make_report()
    assert r.status == "PASS"
    r.add("c", 1, 2, "anchor C")
    assert r.status == "FAIL"
    s = VerificationReport("gated", 1)
    s.skipped = True
    assert s.status == "SKIP"


def test_exit_codes():
    assert make_report().exit_code() == 0
    r = make_report()
    r.add("c", 1, 2, "x")
    assert r.exit_code() == 1
    s = VerificationReport("gated", 1)
    s.skipped = True
    assert s.exit_code() == 2


def test_json_schema_and_key_order(tmp_path):
    r = make_report()
    r.timings_ms["phase"] = 1.5
    path = tmp_path / "r.json"
    emit_report(r, fmt="json", path=str(path))
    data = json.loads(path.read_text())
    assert list(data.keys()) == [
        "schema", "case", "status", "seed", "checks", "hash", "timings_ms",
    ]
    assert data["schema"] == 1
    assert list(data["checks"][0].keys()) == [
        "name", "expected", "actual", "pass", "anchor",
    ]


def test_hash_excludes_timings():
    r1 = make_report()
    r1.timings_ms["x"] = 1.0
    r2 = make_report()
    r2.timings_ms["x"] = 99.0
    assert r1.determinism_hash() == r2.determinism_hash()


def test_text_format_mentions_anchor(capsys):
    emit_report(make_report(), fmt="text")
    out = capsys.readouterr().out
    assert "anchor A" in out
    assert "status: PASS" in out


# ---------------------------------------------------------------------------
# CLI surface


def test_run_case_rejects_unknown():
    with pytest.raises(Unrecognized, match="unknown case"):
        run_case("nope")


def test_cli_o8plus2_skips_without_data(capsys):
    code = main(["verify", "o8plus2"])
    assert code == 2
    assert "SKIP" in capsys.readouterr().out


def test_cli_o8plus2_foreign_subgroup_generator_fails(tmp_path, capsys):
    # g2_2.gens holds a generator outside the group: a FAIL report, not a crash
    (tmp_path / "o8plus2.gens").write_text("degree 4\ngen (1,2,3,4)\n")
    (tmp_path / "g2_2.gens").write_text("degree 4\ngen (1,2)\n")
    code = main(["verify", "o8plus2", "--data", str(tmp_path)])
    assert code == 1
    assert "status: FAIL" in capsys.readouterr().out
    report = run_case("o8plus2", {"data": str(tmp_path)})
    assert report.status == "FAIL"
    contained = next(c for c in report.checks if c["name"] == "subgroup_contained")
    assert contained["actual"] is False


def test_cli_o8plus2_subgroup_of_another_degree_fails(tmp_path, capsys):
    # an empty g2_2.gens of another degree is no subgroup: a FAIL report,
    # not a crash in the coset action
    (tmp_path / "o8plus2.gens").write_text("degree 5\ngen (1,2,3,4,5)\n")
    (tmp_path / "g2_2.gens").write_text("degree 3\n")
    code = main(["verify", "o8plus2", "--data", str(tmp_path)])
    assert code == 1
    assert "status: FAIL" in capsys.readouterr().out
    report = run_case("o8plus2", {"data": str(tmp_path)}).to_json_dict()
    assert report["status"] == "FAIL" and "error" not in report
    contained = next(c for c in report["checks"] if c["name"] == "subgroup_contained")
    assert contained["actual"] is False


def test_cli_o8plus2_runs_every_stage_on_a_small_group(tmp_path):
    # S4 in S5: every check is made, and the coset and suborbit stages run
    (tmp_path / "o8plus2.gens").write_text("degree 5\ngen (1,2,3,4,5)\ngen (1,2)\n")
    (tmp_path / "g2_2.gens").write_text("degree 5\ngen (1,2,3,4)\ngen (1,2)\n")
    report = run_case("o8plus2", {"data": str(tmp_path)}).to_json_dict()
    assert report["status"] == "FAIL" and "error" not in report
    assert [(c["name"], c["actual"], c["pass"]) for c in report["checks"]] == [
        ("group_order", 120, False),
        ("subgroup_contained", True, True),
        ("subgroup_order", 24, False),
        ("coset_degree", 5, False),
        ("no_suborbit_of_size_28", False, True),
    ]
    assert {"o8plus2_coset_action", "o8plus2_suborbits"} <= set(report["timings_ms"])


def test_cli_factorization_row_error_fails_only_its_check(monkeypatch):
    # a row check that raises is recorded as that row's actual value: a
    # FAIL report, not an ERROR; fresh shared stages, because
    # psl2_row_meets holds every row's meet
    real = cli_module.verify_psl2_factorization_row

    def fail_at_q4(T, row):
        if T.degree == 5:
            raise PlinthError("no meet at q=4")
        return real(T, row)

    monkeypatch.setattr("plinth.cli._SHARED", {})
    monkeypatch.setattr("plinth.cli.verify_psl2_factorization_row", fail_at_q4)
    report = run_case("factorizations").to_json_dict()
    assert report["status"] == "FAIL" and "error" not in report
    failed = [(c["name"], c["actual"]) for c in report["checks"] if not c["pass"]]
    assert failed == [("row00_q4_P1_D10", "error: no meet at q=4")]


def test_cli_m12_subgroup_search_failure_fails(monkeypatch, capsys):
    # a subgroup search that finds nothing gives a FAIL report, not a
    # crash; fresh shared stages, because m12_subgroup holds the subgroup
    monkeypatch.setattr("plinth.cli._SHARED", {})
    monkeypatch.setattr(
        "plinth.cli.random_subgroup_of_order", lambda *args, **kwargs: None
    )
    code = main(["verify", "m12"])
    assert code == 1
    assert "status: FAIL" in capsys.readouterr().out
    report = run_case("m12")
    assert report.status == "FAIL"
    assert report.checks[-1]["name"] == "subgroup_order"
    assert report.checks[-1]["actual"] is None


def test_cli_classify_sp44_dihedral_search_failure_fails(monkeypatch, capsys):
    # a dihedral search that finds nothing gives a FAIL report, not a
    # crash; fresh shared stages, because the cached w4_stabilizer stage
    # holds the dihedral search's verdict
    monkeypatch.setattr("plinth.cli._SHARED", {})
    monkeypatch.setattr(
        "plinth.cli.dihedral_subgroup", lambda *args, **kwargs: None
    )
    code = main(["verify", "classify-sp44"])
    assert code == 1
    assert "status: FAIL" in capsys.readouterr().out
    report = run_case("classify-sp44")
    failed = [c["name"] for c in report.checks if not c["pass"]]
    assert failed == ["dihedral_34_index_2"]


def test_cli_classify_a6_without_grids_fails(monkeypatch, capsys):
    # no grid found gives a FAIL report, not a crash on the first grid;
    # fresh shared stages, because the cached ones hold the real grids
    monkeypatch.setattr("plinth.cli._SHARED", {})
    monkeypatch.setattr(
        "plinth.cli.find_grid_decompositions", lambda *args, **kwargs: []
    )
    code = main(["verify", "classify-a6"])
    assert code == 1
    assert "status: FAIL" in capsys.readouterr().out
    report = run_case("classify-a6")
    assert report.status == "FAIL"
    assert report.checks[-1]["name"] == "grid_count"
    assert report.checks[-1]["actual"] == 0


def test_cli_sylvester_without_length5_suborbit_fails(monkeypatch, capsys):
    # no self-paired suborbit of length 5 gives a FAIL report, not a
    # crash on the missing orbital graph
    monkeypatch.setattr("plinth.cli._SHARED", {})
    monkeypatch.setattr("plinth.cli._scan_suborbits", lambda od: [])
    code = main(["verify", "sylvester"])
    assert code == 1
    assert "status: FAIL" in capsys.readouterr().out
    report = run_case("sylvester")
    assert report.status == "FAIL"
    assert report.checks[-1]["name"] == "self_paired_length5_suborbits"
    assert report.checks[-1]["actual"] == 0


def test_cli_sp44_without_valency17_suborbit_fails(monkeypatch):
    # an empty suborbit scan gives a FAIL report, not a crash looking for
    # the valency-17 suborbit; fresh shared stages, because the cached
    # w4_suborbit_scan stage holds the real scan
    monkeypatch.setattr("plinth.cli._SHARED", {})
    monkeypatch.setattr("plinth.cli._scan_suborbits", lambda od: [])
    report = run_case("sp44")
    assert report.status == "FAIL"
    assert report.checks[-1]["name"] == "winning_valency"
    assert report.checks[-1]["actual"] == []


def test_cli_sylvester_and_sp44_pipelines_without_grids_fail(monkeypatch):
    # no grid found: sylvester and sp44 end on a failed grid count and make
    # no inclusion-type check, and classify-sp44 ends at its grid count;
    # fresh shared stages, because the cached ones hold the real grids
    monkeypatch.setattr("plinth.cli._SHARED", {})
    monkeypatch.setattr(
        "plinth.cli.find_grid_decompositions", lambda *args, **kwargs: []
    )
    for case in ("sylvester", "sp44", "classify-sp44"):
        report = run_case(case)
        assert report.status == "FAIL" and report.error is None, case
        last = report.checks[-1]
        assert (last["name"], last["actual"], last["pass"]) == ("grid_count", 0, False)
        assert "inclusion_type" not in {c["name"] for c in report.checks}, case
    assert len(report.checks) == 1


def test_data_is_refused_by_cases_that_read_none(tmp_path, monkeypatch, capsys):
    # only m12 and o8plus2 read --data: any other case given a path is an
    # error (exit 3) before it builds a stage, not a PASS that ignores it
    monkeypatch.setattr(cli_module, "_SHARED", {})
    missing = str(tmp_path / "missing")
    assert main(["verify", "sylvester", "--data", missing]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    for case in ("sp44", "factorizations", "products", "classify-a6"):
        with pytest.raises(Unrecognized, match="--data"):
            run_case(case, {"data": missing})
    assert cli_module._SHARED == {}
    assert run_case("o8plus2", {"data": missing}).status == "SKIP"


def _table_rows(run, table):
    """A case table's rows in order, each group of rows read from the run."""
    for entry in table:
        yield from (entry,) if isinstance(entry, cli_module._Check) else entry(run)


def test_every_check_comes_from_its_case_table():
    # each seed-1 report of a runnable case makes its table's checks, all
    # of them and in table order, with the rows' expected values and anchors
    for case in (c for c in cli_module.CASES if c != "o8plus2"):
        report = run_case(case)
        assert report.status == "PASS", case
        rows = _table_rows(cli_module._Run(case, 1), cli_module._CASES[case])
        want = [(r.name, r.expected, r.anchor) for r in rows]
        got = [(c["name"], c["expected"], c["anchor"]) for c in report.checks]
        assert got == want, case


def test_every_named_anchor_is_used_once():
    # each distinct anchor is one named constant, and some row quotes it
    anchors = {
        name: value for name, value in vars(cli_module).items()
        if name.startswith("ANCHOR_")
    }
    assert len(set(anchors.values())) == len(anchors)
    used = {
        row.anchor
        for case, table in cli_module._CASES.items()
        for row in _table_rows(cli_module._Run(case, 1), table)
    }
    assert {name for name, value in anchors.items() if value not in used} == set()


def test_the_rows_that_end_a_case_are_the_early_returns():
    stops = {
        (case, row.name)
        for case, table in cli_module._CASES.items()
        for row in _table_rows(cli_module._Run(case, 1), table)
        if row.stop
    }
    assert stops == {
        ("sylvester", "self_paired_length5_suborbits"),
        ("sp44", "winning_valency"),
        ("m12", "degree"),
        ("m12", "subgroup_order"),
        ("o8plus2", "subgroup_contained"),
        ("classify-a6", "grid_count"),
        ("classify-sp44", "grid_count"),
    }


def test_cli_crash_exits_3_not_fail(tmp_path, capsys):
    # an unreadable input is a crash (exit 3), not a failed check (exit 1)
    code = main(["verify", "m12", "--data", str(tmp_path / "missing.gens")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")
    # so is a JSON path that cannot be written
    code = main(["verify", "sylvester", "--json", str(tmp_path / "no" / "r.json")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error:")


def test_cli_exception_in_a_stage_is_an_error_report(tmp_path, monkeypatch, capsys):
    # an exception that is no package error ends the case as an ERROR
    # report naming the innermost stage it left, with exit code 3
    def fail(*args, **kwargs):
        raise RuntimeError("suborbits failed")

    monkeypatch.setattr("plinth.cli._SHARED", {})
    monkeypatch.setattr("plinth.cli.suborbits", fail)
    path = tmp_path / "r.json"
    code = main(["verify", "sylvester", "--json", str(path)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == "error: suborbits failed\n"
    assert "status: ERROR" in captured.out
    data = json.loads(path.read_text())
    assert data["status"] == "ERROR"
    assert data["error"] == {
        "stage": "w2_suborbits",
        "type": "RuntimeError",
        "message": "suborbits failed",
    }
    # the checks made before the crash are kept
    assert data["checks"][-1]["name"] == "class_action_degree"
    # nested in the grid stage, the innermost stage is named
    report = run_case("classify-a6")
    assert report.status == "ERROR" and report.exit_code() == 3
    assert report.error["stage"] == "w2_suborbits"
    assert "error" not in run_case("factorizations").to_json_dict()


def test_stage_timings_add_up_and_mark_reused_stages(monkeypatch):
    # from an empty cache, in both orders: the timed stages add up to
    # run_case's wall time, every reused shared stage reads "cached", and
    # sp44 times its class action where it is built
    import plinth.cli as cli

    for order in (("sp44", "classify-sp44"), ("classify-sp44", "sp44")):
        monkeypatch.setattr(cli, "_SHARED", {})
        for case in order:
            built = {cli._stage_name(build, q) for build, q, _ in cli._SHARED}
            start = time.perf_counter()
            report = run_case(case)
            wall_ms = (time.perf_counter() - start) * 1000.0
            assert report.status == "PASS"
            times = report.timings_ms
            timed = sum(v for v in times.values() if v != "cached")
            assert abs(timed - wall_ms) <= 0.05 * wall_ms
            cached = {name for name, v in times.items() if v == "cached"}
            assert cached == built & set(times)
            assert cached or case == order[0]
            if case == order[0] == "sp44":
                assert times["w4_class_action"] > 0


def test_seedless_stages_are_built_once_per_process(monkeypatch):
    # no stage reads the seed: each runnable case at seed 2 after seed 1
    # reads every shared stage from the cache, and still gives seed 2's
    # certificate
    from test_acceptance import GOLDEN_HASHES

    monkeypatch.setattr(cli_module, "_SHARED", {})
    for case in (c for c in cli_module.CASES if c != "o8plus2"):
        assert run_case(case, {"seed": 1}).status == "PASS", case
        built = set(cli_module._SHARED)
        report = run_case(case, {"seed": 2})
        assert set(cli_module._SHARED) == built, case
        assert report.determinism_hash() == GOLDEN_HASHES[case, 2], case


def test_factorizations_at_a_second_seed_builds_no_stage(monkeypatch):
    # the rows are decided once per process: seed 2 after seed 1 reads
    # both of its stages from the cache and gives seed 2's certificate
    from test_acceptance import GOLDEN_HASHES

    monkeypatch.setattr(cli_module, "_SHARED", {})
    run_case("factorizations", {"seed": 1})
    report = run_case("factorizations", {"seed": 2})
    assert report.timings_ms == {"psl2_tables": "cached", "psl2_row_meets": "cached"}
    assert report.determinism_hash() == GOLDEN_HASHES["factorizations", 2]


@pytest.mark.parametrize("case", [c for c in cli_module.CASES if c != "o8plus2"])
def test_a_second_seed_does_no_work(case, monkeypatch):
    # every stage is shared: from an empty cache, seed 2 after seed 1
    # builds nothing, reads each stage it lists as "cached", and still
    # gives seed 2's certificate
    from test_acceptance import GOLDEN_HASHES

    monkeypatch.setattr(cli_module, "_SHARED", {})
    assert run_case(case, {"seed": 1}).status == "PASS"
    built = set(cli_module._SHARED)
    report = run_case(case, {"seed": 2})
    assert set(cli_module._SHARED) == built
    assert report.timings_ms
    assert set(report.timings_ms.values()) == {"cached"}
    assert report.determinism_hash() == GOLDEN_HASHES[case, 2]


def test_small_cases_leave_numpy_ma_unimported():
    # a bare np.unique imports numpy.ma on its first call, about 15 ms of
    # a fresh process; the five small cases make no such call
    src = str(Path(cli_module.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from plinth.cli import run_case\n"
        "for case in ('sylvester', 'm12', 'factorizations', 'products',"
        " 'classify-a6'):\n"
        "    assert run_case(case).status == 'PASS', case\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    assert done.stdout == "False\n"

def test_shared_psl2_groups_keep_a_fresh_chain(monkeypatch):
    # the row checks' subgroup searches draw from T.chain(): after one
    # run of them each shared PSL(2,q) still has the chain a fresh build
    # gives it
    from plinth.algebra import psl2_action

    monkeypatch.setattr(cli_module, "_SHARED", {})
    assert run_case("factorizations").status == "PASS"
    _, groups, _ = cli_module._Run("factorizations", 1).shared(
        cli_module._psl2_tables
    )
    assert len(groups) == 11
    for q, T in groups.items():
        assert T.chain().base == psl2_action(q).chain().base == [0, 1, 2]


def test_shared_stage_key_holds_the_data_path(tmp_path, monkeypatch):
    # a group parsed from one --data file is never read for another
    from test_acceptance import GOLDEN_HASHES

    monkeypatch.setattr(cli_module, "_SHARED", {})
    s12 = tmp_path / "s12.gens"
    s12.write_text(
        "degree 12\ngen (1,2)\ngen (1,2,3,4,5,6,7,8,9,10,11,12)\n",
        encoding="utf-8",
    )
    assert run_case("m12").status == "PASS"
    report = run_case("m12", {"data": str(s12)})
    order = next(c for c in report.checks if c["name"] == "order")
    assert order["actual"] == 479001600 and not order["pass"]
    report = run_case("m12")
    assert report.timings_ms["m12_group"] == "cached"
    assert report.determinism_hash() == GOLDEN_HASHES["m12", 1]


def test_cli_m12_below_degree_5_fails_not_errors(tmp_path, monkeypatch, capsys):
    # the five-point stabilizer chain needs 5 points; a failed degree
    # check ends the case before it is asked for
    monkeypatch.setattr(cli_module, "_SHARED", {})
    gens = tmp_path / "c3.gens"
    gens.write_text("degree 3\ngen (1,2,3)\n", encoding="utf-8")
    out = tmp_path / "r.json"
    assert main(["verify", "m12", "--data", str(gens), "--json", str(out)]) == 1
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["status"] == "FAIL"
    assert "error" not in data
    assert [c["name"] for c in data["checks"]] == ["degree"]


def test_cli_products_with_an_intransitive_square_group_fails(monkeypatch):
    # W cut down to the first coordinate's copy of Aut is not
    # vertex-transitive: the check reads False instead of the arc test
    # raising NotVertexTransitive
    build = cli_module.product_action_wreath

    def first_coordinate(K, ell, top):
        wreath = build(K, ell, top)
        gens = wreath.group.generators[:len(K.generators)]
        wreath.group = cli_module.PermGroup(gens, degree=wreath.group.degree)
        return wreath

    monkeypatch.setattr(cli_module, "_SHARED", {})
    monkeypatch.setattr(cli_module, "product_action_wreath", first_coordinate)
    report = run_case("products")
    assert report.status == "FAIL"
    assert report.error is None
    checks = {c["name"]: c for c in report.checks}
    for name in ("K4", "Petersen"):
        assert checks[f"{name}2_vertex_transitive"]["actual"] is False
        assert checks[f"{name}2_arc_transitive"]["actual"] is False
        assert checks[f"{name}2_neighborhood_product_law"]["pass"]


def _reference_sp4_image(geom, ma):
    """The per-line loop _w_sp4_image replaced: each Sp(4,4) generator's
    images on the points, then on the lines, by one tuple and one dict
    lookup per line."""
    P, n = geom.num_points, geom.num_points + geom.num_lines
    line_index = {line: i for i, line in enumerate(geom.lines)}
    out = []
    for g in ma.group.generators:
        img = np.empty(n, dtype=np.int64)
        img[:P] = g.images
        for li, line in enumerate(geom.lines):
            mapped = tuple(sorted(int(g.images[p]) for p in line))
            img[P + li] = P + line_index[mapped]
        out.append(img.tolist())
    return out


def test_sp4_image_matches_per_line_loop():
    import plinth.cli as cli
    from plinth.algebra import sp4, symplectic_gq

    image = cli._Run("stages", 1).shared(cli._w_sp4_image, 4)
    want = _reference_sp4_image(symplectic_gq(4), sp4(4))
    assert [g.images.tolist() for g in image.generators] == want


def test_grid_stage_reuses_the_suborbits_frame(monkeypatch):
    # the grid search takes G's suborbit frame from the suborbits stage
    # instead of building it a second time
    import plinth.cli as cli
    import plinth.perm as perm

    frames = []
    build = perm.suborbit_frame

    def counted(group):
        frames.append(group)
        return build(group)

    monkeypatch.setattr(cli, "_SHARED", {})
    monkeypatch.setattr(perm, "suborbit_frame", counted)
    monkeypatch.setattr("plinth.graphs.suborbit_frame", counted)
    run = cli._Run("sylvester", 1)
    G = run.shared(cli._w_class_action, 2).group
    grids, _ = run.shared(cli._w_grid, 2)
    assert len(grids) == 1
    assert sum(H is G for H in frames) == 1


def test_cli_sylvester_deterministic(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(["verify", "sylvester", "--json", str(p1)]) == 0
    assert main(["verify", "sylvester", "--json", str(p2)]) == 0
    capsys.readouterr()
    a = json.loads(p1.read_text())
    b = json.loads(p2.read_text())
    assert a["hash"] == b["hash"]
    assert a["status"] == "PASS"


def _sp44_neighborhood():
    """sp44's pair action, the image z of point 0's Z generator, the
    neighbourhood N(0), the first self-paired suborbit of length 17, and
    the frame's transporter from 0 to that suborbit's representative."""
    import plinth.cli as cli

    run = cli._Run("stages", 1)
    act = run.shared(cli._w_class_action, 4)
    od = run.shared(cli._w_suborbits, 4)
    idx = next(
        i
        for i, s in enumerate(od.suborbits)
        if i and s.self_paired and s.length == 17
    )
    u = Permutation(od.transporters[idx].map(np.arange(act.z.degree)), _checked=True)
    return act, act.z, od.points_of(idx).tolist(), u


def _regular_on_neighborhood_by_group(z, nbrs):
    """The check as the 14,400-point group <z> computed it."""
    from plinth.perm import PermGroup

    Z = PermGroup([z], degree=z.degree)
    return (
        Z.order() == 17
        and int(z.images[0]) == 0
        and set(Z.orbit(nbrs[0])) == set(nbrs)
    )


def test_neighborhood_check_matches_the_group_it_generates():
    from plinth.cli import _conjugate_meet_order, _regular_on_neighborhood
    from plinth.perm import PermGroup, intersection_small

    act, z, nbrs, u = _sp44_neighborhood()
    assert _regular_on_neighborhood(z, nbrs, 17)
    assert _regular_on_neighborhood_by_group(z, nbrs)
    n = z.degree
    # the meet of <z> and <z^u>: trivial at the frame's transporter, all
    # of <z> at u = z, each as the meet of the two groups computes it
    for conj, want in [(u, 1), (z, 17)]:
        meet = intersection_small(
            PermGroup([z], degree=n), PermGroup([z.conjugate(conj)], degree=n)
        )
        assert _conjugate_meet_order(z, conj, 17) == meet.order() == want
    # another Sylow 17 generator: z at the neighbour u takes 0 to
    other = z.conjugate(u)
    assert int(other.images[0]) != 0
    cycle_of_0 = _cycle(other, 0)
    cycle = _cycle(
        other,
        next(v for v in range(n) if v not in cycle_of_0 and other.images[v] != v),
    )
    assert len(cycle) == 17
    more = next(v for v in range(1, n) if v not in nbrs and z.images[v] != v)
    outside = next(v for v in range(1, n) if v not in nbrs)
    identity = Permutation(np.arange(n), _checked=True)
    cases = [
        (other, nbrs),  # moves 0
        (identity, nbrs),  # fixes 0 and keeps N(0), but moves none of it
        (z, nbrs[:-1] + [outside]),  # fixes 0, but does not keep the set
        (other, cycle),  # keeps and moves one of its 17-point cycles, moves 0
        (z, nbrs + _cycle(z, more)),  # fixes 0, keeps and moves 34 points
    ]
    for g, points in cases:
        assert not _regular_on_neighborhood(g, points, 17)
        assert not _regular_on_neighborhood_by_group(g, points)


def _cycle(perm, v):
    out = [v]
    while (v := int(perm.images[v])) != out[0]:
        out.append(v)
    return out
