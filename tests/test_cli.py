"""Tests for generator-file parsing, report emission, and the CLI."""

import json
import os

import pytest

from plinth.cli import (
    GeneratorFile,
    VerificationReport,
    data_path,
    emit_report,
    main,
    parse_generators,
    run_case,
)
from plinth.errors import NotBijection, ParseError


# ---------------------------------------------------------------------------
# generator files


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
    p = tmp_path / "t.gens"
    p.write_text("degree 5\ngen (1,2,3)\ngen (4,5)\norder 6\n")
    gf = parse_generators(str(p))
    emitted = gf.emit()
    q = tmp_path / "u.gens"
    q.write_text(emitted)
    gf2 = parse_generators(str(q))
    assert gf2.emit() == emitted


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


def test_shipped_m12_file_validates():
    gf = parse_generators(data_path("m12.gens"))
    assert gf.degree == 12
    assert len(gf.generators) == 2
    assert gf.expected_order == 95040
    G = gf.group()
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
    with pytest.raises(ValueError):
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


def test_cli_m12_subgroup_search_failure_fails(capsys):
    # one search iteration finds no subgroup of order 660: a FAIL report
    code = main(["verify", "m12", "--max-iter", "1"])
    assert code == 1
    assert "status: FAIL" in capsys.readouterr().out
    report = run_case("m12", {"max_iter": 1})
    assert report.status == "FAIL"
    assert report.checks[-1]["name"] == "subgroup_order"
    assert report.checks[-1]["actual"] is None


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
