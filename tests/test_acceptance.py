"""Acceptance gate: end-to-end criteria for the verification suite.

Each test pins one acceptance criterion; the case reports are built
once per session and shared.
"""

import time

import pytest

from plinth.cli import run_case


_REPORTS = {}
_TIMES = {}


def report_for(case, **options):
    key = (case, tuple(sorted(options.items())))
    if key not in _REPORTS:
        start = time.perf_counter()
        _REPORTS[key] = run_case(case, options or None)
        _TIMES[key] = time.perf_counter() - start
    return _REPORTS[key], _TIMES[key]


def check(report, name):
    entry = next(c for c in report.checks if c["name"] == name)
    return entry


# ---------------------------------------------------------------------------
# criterion 1: Sylvester case


def test_criterion_1_sylvester_graph_and_flavors():
    report, elapsed = report_for("sylvester")
    assert report.status == "PASS"
    assert check(report, "vertices")["actual"] == 36
    assert check(report, "valency")["actual"] == 5
    assert check(report, "connected")["actual"] is True
    assert check(report, "two_arc_transitive_PSigmaL")["actual"] is True
    assert check(report, "two_arc_transitive_PGammaL")["actual"] is True
    assert check(report, "two_arc_transitive_PSL")["actual"] is False
    assert check(report, "two_arc_transitive_PGL")["actual"] is False
    # deviation, recorded in the decisions ledger: the computed truth for
    # M10 is True (verified against a brute-force 2-arc orbit count), and
    # the suite reports computed truth per flavor
    assert check(report, "two_arc_transitive_M10")["actual"] is True


def test_criterion_1_sylvester_runtime():
    _, elapsed = report_for("sylvester")
    assert elapsed < 5.0


def test_criterion_1_sylvester_s_arc_transitivity_max():
    # the largest s <= 3 for which each flavor is s-arc-transitive on
    # the graph, by the arc-stabilizer criterion and by brute-force
    # arc-orbit counting: 2 exactly for the 2-arc-transitive flavors
    from plinth.cli import (
        _Run,
        _a6_class_action,
        _a6_flavour_groups,
        _a6_suborbits,
        _scan_suborbits,
    )
    from plinth.graphs import orbital_graph, s_arc_transitivity_max
    from test_graphs import brute_s_arc_max

    run = _Run("sylvester", 1)
    od = run.shared(_a6_suborbits)
    hit = next(r for r in _scan_suborbits(od) if r["length"] == 5)
    G = run.shared(_a6_class_action).group
    graph = orbital_graph(G, hit["representative"], od)
    flavour_groups = run.shared(_a6_flavour_groups)
    got = {
        f: s_arc_transitivity_max(group, graph, s_cap=3)
        for f, group in flavour_groups.items()
    }
    assert got == {"PSL": 1, "PGL": 1, "PSigmaL": 2, "M10": 2, "PGammaL": 2}
    for f, group in flavour_groups.items():
        assert brute_s_arc_max(group, graph) == got[f]


# ---------------------------------------------------------------------------
# criterion 2: Sp(4,4) case


def test_criterion_2_sp44():
    report, elapsed = report_for("sp44")
    assert report.status == "PASS"
    assert check(report, "aut_order")["actual"] == 3916800
    assert check(report, "class_action_degree")["actual"] == 14400
    assert check(report, "graph_yielding_suborbits")["actual"] == 1
    assert check(report, "winning_valency")["actual"] == [17]
    assert check(report, "Z_regular_on_neighborhood")["actual"] is True
    assert check(report, "Z_meet_conjugate_trivial")["actual"] == 1
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# criterion 3: M12 case


def test_criterion_3_m12():
    report, elapsed = report_for("m12")
    assert report.status == "PASS"
    assert check(report, "coset_degree")["actual"] == 144
    assert check(report, "graph_yielding_suborbits")["actual"] == 0
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 4: factorization rows


def test_criterion_4_factorizations():
    report, elapsed = report_for("factorizations")
    assert report.status == "PASS"
    rows = [c for c in report.checks if c["name"].startswith("row")]
    assert len(rows) == 15
    assert all(c["pass"] for c in rows)
    even = [c for c in rows if "even" in c["anchor"]]
    assert even and all(c["actual"] == 2 for c in even)
    odd_generic = [c for c in rows if "odd" in c["anchor"]]
    assert odd_generic and all(c["actual"] == 1 for c in odd_generic)
    table3 = [c for c in rows if "Table 3" in c["anchor"]]
    assert [c["actual"] for c in table3] == [2, 3, 4, 6, 10, 5, 3, 1, 2, 1]
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 5: product non-transitivity


def test_criterion_5_products():
    report, elapsed = report_for("products")
    assert report.status == "PASS"
    for name in ("K4", "Petersen"):
        assert check(report, f"{name}2_vertex_transitive")["actual"] is True
        assert check(report, f"{name}2_arc_transitive")["actual"] is True
        assert check(report, f"{name}2_two_arc_transitive")["actual"] is False
        assert check(report, f"{name}2_neighborhood_product_law")["actual"] is True
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 6: classifier consistency


def test_criterion_6_classifier():
    a6, _ = report_for("classify-a6")
    sp44, _ = report_for("classify-sp44")
    assert a6.status == "PASS" and sp44.status == "PASS"
    assert check(a6, "inclusion_type")["actual"] == "CD2Sim"
    assert check(sp44, "inclusion_type")["actual"] == "CD2Sim"
    assert check(a6, "a5wr2_inclusion_type")["actual"] == "Normal"
    assert check(a6, "a5wr2_product_formula")["actual"] is True
    assert check(a6, "s_at_most_3")["actual"] is True
    assert check(sp44, "s_at_most_3")["actual"] is True


def test_criterion_6_cached_grid_verdicts_carry_block_bijections():
    from plinth.cli import _Run, _a6_grid, _w4_grid

    for case, blocks, grid in (("sylvester", 6, _a6_grid), ("sp44", 120, _w4_grid)):
        report, _ = report_for(case)
        assert check(report, "inclusion_type")["actual"] == "CD2Sim"
        verdict = _Run(case, 1).shared(grid)[1][0]
        beta = verdict.details["block_bijection"]
        assert sorted(beta) == list(range(blocks))


# ---------------------------------------------------------------------------
# criterion 7: envelope spot checks


def test_criterion_7_envelopes():
    a6, _ = report_for("classify-a6")
    sp44, _ = report_for("classify-sp44")
    assert check(a6, "plinth_stabilizer_order")["actual"] == 10
    assert check(a6, "plinth_stabilizer_dihedral")["actual"] is True
    assert check(sp44, "plinth_stabilizer_order")["actual"] == 68
    assert check(sp44, "dihedral_34_index_2")["actual"] is True


# ---------------------------------------------------------------------------
# criterion 8: oracle equivalence (exhaustive on the test corpus)


def test_criterion_8_two_arc_oracle_corpus():
    from plinth.graphs import two_arc_transitive
    # the tests directory is on sys.path under both ``pytest`` and
    # ``python -m pytest``; the repository root only under the latter
    from test_graphs import ORACLE_CASES, brute_s_arc_orbit

    assert len(ORACLE_CASES) >= 5
    for param in ORACLE_CASES:
        G, graph = param.values
        count, transitive = brute_s_arc_orbit(G, graph, 2)
        assert count <= 2000
        assert two_arc_transitive(G, graph) == transitive


def test_criterion_8_membership_and_intersection_oracles():
    from random import Random

    from plinth.perm import PermGroup, Permutation, intersection_small

    import numpy as np

    corpus = [
        PermGroup.symmetric(5),
        PermGroup.alternating(5),
        PermGroup.cyclic(12),
        PermGroup(
            [
                Permutation.from_cycles(8, [(0, 1, 2, 3)]),
                Permutation.from_cycles(8, [(1, 3), (4, 5)]),
            ],
            degree=8,
        ),
    ]
    rng = Random(5)
    for G in corpus:
        assert G.order() <= 2000
        member = {g.tobytes() for g in G.elements()}
        assert len(member) == G.order()
        for _ in range(25):
            images = list(range(G.degree))
            rng.shuffle(images)
            g = Permutation(np.array(images, dtype=np.int64), _checked=True)
            assert G.contains(g) == (g.tobytes() in member)
    A = PermGroup.alternating(5)
    B = PermGroup(
        [Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])], degree=5
    )
    got = intersection_small(A, B).order()
    brute = sum(1 for g in B.elements() if A.contains(g))
    assert got == brute == 5


# ---------------------------------------------------------------------------
# criterion 9: data-gated case


def test_criterion_9_o8plus2_gating():
    report, _ = report_for("o8plus2")
    assert report.status == "SKIP"
    assert report.exit_code() == 2


# ---------------------------------------------------------------------------
# golden certificates: the determinism hash is the behaviour contract

GOLDEN_HASHES = {
    ("sylvester", 1): "30baffa621cb6295f03d06cc1746319861783b064acaf615991382557e523ea1",
    ("sylvester", 2): "5e67629612d96fcfc47233e9d55dbee9711c9c80faf02e1e84bba716ca4d30d1",
    ("sylvester", 3): "8b581de7050cece4c2a5a2a92144f698a18a17d0ca50e1b764798eaa84f1d1ca",
    ("m12", 1): "8954d9f439a32642ea58800174cdcc28c8608c5c948aecfebaf32eb259aa3064",
    ("m12", 2): "55048795a6cb7e6b354e78da363a4bda79ea984bb15065e301bfc945d95640c4",
    ("m12", 3): "a6694d8214cebc6ef402e447eeedfd79df69b504ad68cda217470a9555b393d3",
    ("factorizations", 1): "c3f23a3e632b7de35c56372cdf2013abf8ead18cc48be83d276c3ff25de118ba",
    ("factorizations", 2): "5b6a92a7a338a3a15b11fdf8bf010deebbbeb311f94a71b4b268d53c723eabf3",
    ("factorizations", 3): "9da5cc79b3222d7046bda3322836fbaab4779ce6fe32fda94368aa7405d264f2",
    ("products", 1): "877796d287ca47b06a8388903adf584fa6a4565c965ca735e2ee352648de8bb7",
    ("products", 2): "31405a6bf94082fb5c53c9b8441b55e3fd872eb68cf65bc0fff4b2ec0632d1c8",
    ("products", 3): "8979ac1501f5e5ca469c09e3ee36dc53e8d55083781ed3bec1e24e750620df46",
    ("classify-a6", 1): "8b0f521fd1a6152b085ba4cd07004d4a496acd0020dc729ad6b40bac73221c11",
    ("classify-a6", 2): "e849add249a0c341c67e00629d6e196c2575b60495120c2f6408224f20f22a1b",
    ("classify-a6", 3): "7c75f3a1fc1ece9b7057fa723b5a2332f73dd08b4b6f9e0850ac3e4d0bec2a38",
    # seed 1 only: these share the cached reports of criteria 2 and 6
    ("sp44", 1): "f2fb9583402d9ec33bc5c304cc8707d873faf45833cbdcc1c0c26ee207f50dc7",
    ("classify-sp44", 1): "588fdde92aacf11f5c6f88e4cd24069e969d2885606e45a4e75b6fb052540351",
    # a second sp44 seed builds its own context (a few seconds)
    ("sp44", 2): "c3825b0ee8fecf6770e3cf1f852c52cd52dd9ab63f30e95aece235dcd238a95a",
    # shares the sp44 seed-2 context and pins its class action
    ("classify-sp44", 2): "027c19c81c4dfdebf25126ec2f718c477614bf0c5cae78afafc584fe8dc9d816",
}


@pytest.mark.parametrize("case,seed", sorted(GOLDEN_HASHES))
def test_golden_certificate_hash(case, seed):
    # seed 1 is run_case's default, so it reuses the criteria's reports
    report, _ = report_for(case) if seed == 1 else report_for(case, seed=seed)
    assert report.status == "PASS"
    assert report.determinism_hash() == GOLDEN_HASHES[case, seed]
