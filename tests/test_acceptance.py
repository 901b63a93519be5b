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
        _a6_flavour_groups,
        _scan_suborbits,
        _w_class_action,
        _w_suborbits,
    )
    from plinth.graphs import orbital_graph, s_arc_transitivity_max
    from test_graphs import brute_s_arc_max

    run = _Run("sylvester", 1)
    od = run.shared(_w_suborbits, 2)
    hit = next(r for r in _scan_suborbits(od) if r["length"] == 5)
    G = run.shared(_w_class_action, 2).group
    graph = orbital_graph(G, hit["representative"], od)
    flavour_groups = run.shared(_a6_flavour_groups)
    got = {
        f: s_arc_transitivity_max(group, graph, s_cap=3)
        for f, group in flavour_groups.items()
    }
    assert got == {"PSL": 1, "PGL": 1, "PSigmaL": 2, "M10": 2, "PGammaL": 2}
    for f, group in flavour_groups.items():
        assert brute_s_arc_max(group, graph) == got[f]


# the order and the set of element orders of each A6 flavour, on the
# degree-10 model and as named among the subgroups of Aut W(2)
FLAVOUR_ELEMENT_ORDERS = {
    "PSL": (360, {1, 2, 3, 4, 5}),
    "PGL": (720, {1, 2, 3, 4, 5, 8, 10}),
    "PSigmaL": (720, {1, 2, 3, 4, 5, 6}),
    "M10": (720, {1, 2, 3, 4, 5, 8}),
    "PGammaL": (1440, {1, 2, 3, 4, 5, 6, 8, 10}),
}


@pytest.mark.parametrize("flavour", sorted(FLAVOUR_ELEMENT_ORDERS))
def test_each_w2_flavour_group_matches_its_degree_10_namesake(flavour):
    # the naming rule for the index-2 subgroups of Aut W(2) over A6 gives
    # each the order and element orders of psl2_action(9, flavour)
    from plinth.algebra import psl2_action
    from plinth.cli import _Run, _a6_flavour_groups

    def spectrum(group):
        return group.order(), {g.order() for g in group.elements()}

    named = _Run("sylvester", 1).shared(_a6_flavour_groups)[flavour]
    assert named.degree == 36
    assert spectrum(named) == spectrum(psl2_action(9, flavour))
    assert spectrum(named) == FLAVOUR_ELEMENT_ORDERS[flavour]


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
    from plinth.cli import _Run, _w_grid

    for case, blocks, q in (("sylvester", 6, 2), ("sp44", 120, 4)):
        report, _ = report_for(case)
        assert check(report, "inclusion_type")["actual"] == "CD2Sim"
        verdict = _Run(case, 1).shared(_w_grid, q)[1][0]
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
    # later seeds read the W(4) stages the first one built
    ("sp44", 2): "c3825b0ee8fecf6770e3cf1f852c52cd52dd9ab63f30e95aece235dcd238a95a",
    ("classify-sp44", 2): "027c19c81c4dfdebf25126ec2f718c477614bf0c5cae78afafc584fe8dc9d816",
    # the rest of the 66-hash sweep: the five small cases at seeds 4-12
    ("sylvester", 4): "339124b16f0315a0b18f069bc4475ec8c4a581b53926abb7694bd032b3d91b02",
    ("sylvester", 5): "8755c6a66a1dab00b2f02995bf38ec159a7b16cde5bf70e84ee5dbeb1c895dd3",
    ("sylvester", 6): "408340f3b191abce08370685fc0f1437ad479c8a67959035f2dadda4062d6572",
    ("sylvester", 7): "1d6cd5139076361c7308c6c6283382dc4f748c5d2a077da0debd578ea08f859a",
    ("sylvester", 8): "8c293aa31a61cb516ee3ee73aa75948ed33b44f09dd76d6bf6fee929fe80bddd",
    ("sylvester", 9): "079681500537d33c6a19f0394285fc4902f581121fdfa886de0a44961f186eef",
    ("sylvester", 10): "c59b10008eb552fdee0967605e05f8c5e5c8b0544ae1e621a10fc6ae92df9ded",
    ("sylvester", 11): "f2aa50eb342f5d702af5544d504e9ad26a807d8548af45266f09e141365f0dc3",
    ("sylvester", 12): "947db2bac297342fc9898c5e6a8a78af057f87af7f1c4d12eefd89ea57dff3f0",
    ("m12", 4): "503904bcc52e81f476ef5cb2695197c39d6d8bd20a207041e9d7cf1ab07d1ec7",
    ("m12", 5): "bd20e374b537adf91540987305750906464fab345bc2750ca9c0f422767f8e34",
    ("m12", 6): "5d844762ff96998366c450c1a35df6e6ed0b0e6764b2891137b7cdffc4e80675",
    ("m12", 7): "2a6c33b700bb92a9d1368b85c936b722e500a88c97413dfe0b4bb771c44574e5",
    ("m12", 8): "3818ba24e51720417819ce60e71c125c78868f5a9d3585afca323e6496e381fb",
    ("m12", 9): "e62fa642892e76c4df9d801bdc5eb4f029d87ba1dd4739f47df7e7606c99d67d",
    ("m12", 10): "4814ed75915bd1f91af9f3cf209f2e8c02a86ee59f1262b3ae656a99dddbc3d5",
    ("m12", 11): "725be7e51de3457c76dc31d8f8c92416c9ab56a828def2649fdb98e0e323c949",
    ("m12", 12): "20d82815cc4b4915c27dd072a1d72cc9c7e342a4577a2365e871861344155666",
    ("factorizations", 4): "7b3c13b0f4537a5a5e7efd31f52473002068b1c84e80f592137b3e54ec8d5e21",
    ("factorizations", 5): "2b316bc69948129731492c5c0503ff2c01bb30248d34f04a08f117dc70b10af5",
    ("factorizations", 6): "8d77f7cd51f007fa5845449fcff7917e4e4976266050140ffd2d527c7c06080a",
    ("factorizations", 7): "1449bbbcbaa6afc20d8d61baac029b1323967f9fa6837e080e9a75807cefce5c",
    ("factorizations", 8): "018bd64fe3b1afbc29d9dde6a4309c478587c25e4cd94ce5cffa3085d3054bc1",
    ("factorizations", 9): "5378acf3be45a3b7e185192d856db5c2d6efab8bb95f69b116ff70132c6ccc80",
    ("factorizations", 10): "1fca7fde65f192e058fcb8596970d3edddd9a3469bbf9d46ece25ce02027cd5a",
    ("factorizations", 11): "22129303afd32d8e78eb438b934627204a52d261a6324e65ba0001c825894923",
    ("factorizations", 12): "76dfc9f5c59d40a96360dce8e9221a03b5efd3e4d374429c25b419ef93458e7c",
    ("products", 4): "2209936055cc3e12ec80e8154054d4b29af4d6484d261ce2474c5ec2970da67b",
    ("products", 5): "bf8197dfe60d0c48115352e3564c0f07bed7809938fbfdd2e77ed1a2c3331e80",
    ("products", 6): "0b5d171fce037c4546083b76eb5bc9a19bee444d02c1d12e1f0835976bbec208",
    ("products", 7): "1d66fb9ec74cb5b816b255b3ce88ca568517df0869f2242d68292e7a4280491f",
    ("products", 8): "f986f70de1cb521cfa15d34e05155f6a942ffc1febc0d103b440215ca1a31197",
    ("products", 9): "73c3d72e214ed4b08961400d40fa3d39507f0f994a848f5c513ca6122df58880",
    ("products", 10): "eea13c1c48088d8a7a785295473af93b7818e0edd0c595de4e05d06b72294195",
    ("products", 11): "253e82cd5f46ebd485f3828eae8fc8281e1d76edaae2d15d9911af5ec404c43e",
    ("products", 12): "bc334d96d0f9bc7f23dad3ddc63d4ef2328d82009108df9ec3088a8ea3c10c66",
    ("classify-a6", 4): "cef0412c2c1c39171e93daf40ba2ef743f75acb1f20ada4f3cda542233eebc11",
    ("classify-a6", 5): "6e78741d864c76743d10a9098dd1b1eb63ba53394b9c48569a62793bce08f93c",
    ("classify-a6", 6): "466fd9e53cf4525f179fb1e08468d28af6204a972ac56ffb4d3fef98d02b6377",
    ("classify-a6", 7): "00ab3172437640e1894a4aff438cb71f0021b4c4dd6b58e682e83d7048bbaf7f",
    ("classify-a6", 8): "60eeb2f47ab022c60aed7b2294e99f7d4c51c6af422e0af36031f8fb05359fe4",
    ("classify-a6", 9): "5bdba0406d5c1d90328ebd3d3aafae99989f723e5568d4444327a331e6e6b65c",
    ("classify-a6", 10): "ad710e55e808329ea38b1963d065e378fecf00c05a09a234834854bf5ca800e2",
    ("classify-a6", 11): "decbd18f9c6a19ec93d449526a587232856a2555eb2c31eed704142e780f6956",
    ("classify-a6", 12): "3362300ccf7b0a0a185adddacc393e1279b32b6d768a82fe4c25aad00bce7526",
    ("sp44", 3): "fab0dd6628ab7dbb42565c61b6bc0fcff58f3180b56713bd2e764b080a4c3aa2",
    ("classify-sp44", 3): "924d2329a1ce66bbcf32fb62d6b2c3f966927ebc6698c72ad1cabef18246e118",
}


@pytest.mark.parametrize("case,seed", sorted(GOLDEN_HASHES))
def test_golden_certificate_hash(case, seed):
    # seed 1 is run_case's default, so it reuses the criteria's reports
    report, _ = report_for(case) if seed == 1 else report_for(case, seed=seed)
    assert report.status == "PASS"
    assert report.determinism_hash() == GOLDEN_HASHES[case, seed]
