"""Tests for finite fields, PSL(2,q) actions, and the symplectic geometry."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import plinth.algebra
from plinth.algebra import (
    Field,
    check_field_order,
    extend_to_lines,
    gq_automorphism_group,
    identify_extension_flavor,
    preserves_form,
    psl2_action,
    sp4,
    symplectic_gq,
)
from plinth.autgq import incidence_graph
from plinth.errors import (
    ConstructionFailed,
    TooLarge,
    UnsupportedField,
    UnsupportedFlavor,
)
from plinth.graphs import is_automorphism
from plinth.perm import PermGroup, Permutation, is_k_transitive


# ---------------------------------------------------------------------------
# scalar reference for PG(3,q) arithmetic, one table lookup at a time

_J = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))


def _dot(F, u, v):
    total = 0
    for x, y in zip(u, v):
        total = int(F.add[total, F.mul[x, y]])
    return total


def _form(F, x, y):
    """B(x,y) = x1 y2 + x2 y1 + x3 y4 + x4 y3."""
    return _dot(F, x, tuple(_dot(F, row, y) for row in _J))


def _vec_mat(F, v, m):
    return tuple(_dot(F, v, tuple(m[r][j] for r in range(4))) for j in range(4))


def _normalize(F, v):
    lead = next(x for x in v if x)
    c = F.inv[lead]
    return tuple(int(F.mul[c, x]) for x in v)


def _reference_preserves_form(F, m):
    for i in range(4):
        for j in range(4):
            ei = tuple(int(r == i) for r in range(4))
            ej = tuple(int(r == j) for r in range(4))
            if _form(F, _vec_mat(F, ei, m), _vec_mat(F, ej, m)) != _J[i][j]:
                return False
    return True


def projective_points(F):
    """Normalized representatives of 1-spaces of F^4, lexicographic."""
    return [
        v
        for v in itertools.product(range(F.q), repeat=4)
        if any(v) and next(x for x in v if x) == 1
    ]


def _reference_gq(q):
    """W(q) as (points, lines, point lines), point by point."""
    F = Field(q)
    points = projective_points(F)
    index = {v: i for i, v in enumerate(points)}
    lines = set()
    for i, u in enumerate(points):
        for j in range(i + 1, len(points)):
            v = points[j]
            if _form(F, u, v) != 0:
                continue
            span = {i, j}
            for c in range(1, q):
                w = tuple(int(F.add[u[t], F.mul[c, v[t]]]) for t in range(4))
                span.add(index[_normalize(F, w)])
            lines.add(tuple(sorted(span)))
    lines = sorted(lines)
    point_lines = [[] for _ in points]
    for li, line in enumerate(lines):
        for p in line:
            point_lines[p].append(li)
    return points, lines, point_lines


FIELD_SIZES = [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32, 49]


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_field_axioms(q):
    # over whole tables: every a, b and c of GF(q)
    F = Field(q)
    add, mul = F.add, F.mul
    elems = np.arange(q)
    assert add.shape == mul.shape == (q, q)
    assert (add[:, 0] == elems).all()
    assert (mul[:, 1] == elems).all()
    assert ((add == 0).sum(axis=1) == 1).all()  # each a has one negative
    assert (mul[elems[1:], F.inv[1:]] == 1).all()
    assert (add == add.T).all()
    assert (mul == mul.T).all()
    a, b, c = np.ix_(elems, elems, elems)
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()
    assert (add[a, add[b, c]] == add[add[a, b], c]).all()


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 49])
def test_frobenius_is_field_automorphism(q):
    # the package's Frobenius map: PSigmaL(2,q)'s last generator on the
    # field points
    F = Field(q)
    frob = psl2_action(q, "PSigmaL").generators[-1].images[:q]
    assert sorted(frob.tolist()) == list(range(q))
    a, b = np.ix_(np.arange(q), np.arange(q))
    assert (frob[F.add[a, b]] == F.add[frob[a], frob[b]]).all()
    assert (frob[F.mul[a, b]] == F.mul[frob[a], frob[b]]).all()


def test_field_rejects_non_prime_power():
    with pytest.raises(UnsupportedField):
        Field(6)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Field(121),  # no primitive polynomial on file
        lambda: Field(64),
        lambda: Field(1),
        lambda: psl2_action(3),
        lambda: sp4(3),
        lambda: symplectic_gq(9),
    ],
    ids=["Field(121)", "Field(64)", "Field(1)", "psl2_action(3)", "sp4(3)",
         "symplectic_gq(9)"],
)
def test_unsupported_q_raises_a_typed_error(build):
    with pytest.raises(UnsupportedField):
        build()


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_mul_and_inv_tables_agree_with_exp_log(q):
    F = Field(q)
    for a in range(q):
        for b in range(q):
            want = 0
            if a and b:
                want = int(F.exp[(F.log[a] + F.log[b]) % (q - 1)])
            assert F.mul[a, b] == want
        if a:
            assert F.inv[a] == F.exp[-F.log[a] % (q - 1)]


def test_field_rejects_q_whose_add_table_exceeds_the_bound():
    # a 2048 x 2048 table is past ENUMERATION_BOUND; the check runs first
    with pytest.raises(TooLarge):
        Field(2048)
    with pytest.raises(TooLarge):
        Field(100000000000031)


def _accepted_orders(qs):
    out = []
    for q in qs:
        try:
            check_field_order(q)
        except (TooLarge, UnsupportedField):
            continue
        out.append(q)
    return out


def _reference_prime_tables(p):
    """exp/log tables of GF(p) by the loop x -> x * g % p, for the least
    primitive root g."""
    g = next(
        g for g in range(1, p) if len({pow(g, i, p) for i in range(p - 1)}) == p - 1
    )
    exp = np.zeros(p - 1, dtype=np.int64)
    log = np.full(p, -1, dtype=np.int64)
    x = 1
    for i in range(p - 1):
        exp[i] = x
        log[x] = i
        x = x * g % p
    return exp, log


def test_prime_field_tables_match_the_residue_loop():
    primes = [q for q in _accepted_orders(range(2, 1001)) if Field(q).k == 1]
    assert len(primes) == 168  # every prime below 1000
    for p in primes:
        exp, log = _reference_prime_tables(p)
        F = Field(p)
        assert (F.exp == exp).all() and (F.log == log).all(), p


PSL2_ORDERS = {
    4: 60,
    5: 60,
    7: 168,
    8: 504,
    9: 360,
    11: 660,
    13: 1092,
    49: 58800,
}


@pytest.mark.parametrize("q,order", sorted(PSL2_ORDERS.items()))
def test_psl2_orders_and_transitivity(q, order):
    G = psl2_action(q)
    assert G.degree == q + 1
    assert G.order() == order
    assert is_k_transitive(G, list(range(q + 1)), 2)


def test_psl2_sharply_3_transitive_when_pgl():
    # PGL(2,q) is sharply 3-transitive on the projective line
    G = psl2_action(5, "PGL")
    assert G.order() == 120
    assert is_k_transitive(G, list(range(6)), 3)


def _reference_psl2_generators(q, flavor):
    """psl2_action's generators point by point, infinity being point q:
    one table lookup at a time, with x^p as p - 1 products."""
    F = Field(q)
    inf = q
    nu = F.primitive_element()

    def fixing_infinity(fn):
        return Permutation([inf if x == inf else fn(x) for x in range(q + 1)])

    def neg(x):
        return F.add[x].tolist().index(0)  # the y with x + y = 0

    def frobenius(x):
        y = x
        for _ in range(F.p - 1):
            y = int(F.mul[y, x])
        return y

    def inversion(x):
        if x == inf:
            return 0
        if x == 0:
            return inf
        return neg(int(F.inv[x]))

    gens = [
        fixing_infinity(lambda x, a=F.p**i: int(F.add[x, a])) for i in range(F.k)
    ] + [Permutation([inversion(x) for x in range(q + 1)])]
    extra = {
        "PSL": [],
        "PGL": [lambda x: int(F.mul[nu, x])],
        "PSigmaL": [frobenius],
        "PGammaL": [lambda x: int(F.mul[nu, x]), frobenius],
        "M10": [lambda x: int(F.mul[nu, frobenius(x)])],
    }[flavor]
    return gens + [fixing_infinity(fn) for fn in extra]


def test_psl2_generators_match_the_per_point_reference():
    built = 0
    for q in _accepted_orders(range(4, 201)):
        for flavor in ("PSL", "PGL", "PSigmaL", "M10", "PGammaL"):
            try:
                G = psl2_action(q, flavor)
            except UnsupportedFlavor:
                continue
            assert G.generators == _reference_psl2_generators(q, flavor), (q, flavor)
            built += 1
    # 44 primes and 8 proper prime powers from 4 to 200, and M10 at q = 9
    assert built == 2 * 52 + 2 * 8 + 1


FLAVOR_ORDERS = {
    "PSL": 360,
    "PGL": 720,
    "PSigmaL": 720,
    "M10": 720,
    "PGammaL": 1440,
}


@pytest.mark.parametrize("flavor", sorted(FLAVOR_ORDERS))
def test_q9_flavor_orders(flavor):
    G = psl2_action(9, flavor)
    assert G.degree == 10
    assert G.order() == FLAVOR_ORDERS[flavor]


@pytest.mark.parametrize("flavor", sorted(FLAVOR_ORDERS))
def test_identify_extension_flavor(flavor):
    G = psl2_action(9, flavor)
    assert identify_extension_flavor(G) == flavor


def test_identify_extension_flavor_needs_the_projective_line():
    from plinth.errors import Unrecognized

    # S6 has order 720 but acts on 6 points, not the 10 points of PG(1,9)
    with pytest.raises(Unrecognized):
        identify_extension_flavor(PermGroup.symmetric(6))


def test_flavor_identification_invariant_under_relabeling():
    import numpy as np
    from plinth.perm import Permutation

    rng = np.random.default_rng(5)
    for flavor in FLAVOR_ORDERS:
        G = psl2_action(9, flavor)
        relabel = rng.permutation(10)
        inv = np.argsort(relabel)
        gens = [
            Permutation(relabel[g.images[inv]], _checked=True)
            for g in G.generators
        ]
        H = PermGroup(gens, degree=10)
        assert identify_extension_flavor(H) == flavor


def test_sp4_order_and_form_preservation():
    ma = sp4(2)
    assert ma.group.order() == 720
    for m in ma.matrices:
        assert preserves_form(ma.field, m)
    ma4 = sp4(4)
    assert ma4.group.order() == 979200
    assert ma4.group.degree == 85


@pytest.mark.parametrize("q", [2, 4])
def test_sp4_keeps_each_generator_with_its_matrix(q):
    # only transvections that enlarge the group are kept, each with the
    # matrix whose action on the projective points it is
    ma = sp4(q)
    points = projective_points(ma.field)
    index = {v: i for i, v in enumerate(points)}
    assert len(ma.matrices) == len(ma.group.generators)
    F = ma.field
    for g, m in zip(ma.group.generators, ma.matrices):
        images = [index[_normalize(F, _vec_mat(F, v, m))] for v in points]
        assert g.images.tolist() == images
    # no kept generator lies in the group generated by those before it
    grown = PermGroup.trivial(len(points))
    assert all(grown.extend(g) for g in ma.group.generators)


def test_projective_points_count():
    F = Field(4)
    assert len(projective_points(F)) == (4**4 - 1) // (4 - 1)


def test_symplectic_gq_builds_its_projective_space_once(monkeypatch):
    builds = []
    init = plinth.algebra._PG3.__init__

    def counted(self, F):
        builds.append(F.q)
        init(self, F)

    monkeypatch.setattr(plinth.algebra._PG3, "__init__", counted)
    geom = symplectic_gq(4)
    assert builds == [4]
    assert len(geom.points) == 85
    assert geom.points == projective_points(Field(4))


@pytest.mark.parametrize("q", [2, 4])
def test_symplectic_gq_matches_the_scalar_reference(q):
    geom = symplectic_gq(q)
    assert (geom.points, geom.lines, geom.point_lines) == _reference_gq(q)


def _reference_transvection(F, v, lam):
    """x -> x + lam B(x,v) v: entry (i, j) is [i = j] + lam (Jv)_i v_j."""
    jv = [_dot(F, row, v) for row in _J]
    return [
        [int(F.add[int(i == j), F.mul[F.mul[lam, jv[i]], v[j]]]) for j in range(4)]
        for i in range(4)
    ]


@pytest.mark.parametrize("q", [4, 8])
def test_preserves_form_matches_the_scalar_reference(q):
    F = Field(q)
    rng = np.random.default_rng(q)
    matrices = [rng.integers(0, q, size=(4, 4)).tolist() for _ in range(200)]
    symplectic = [
        _reference_transvection(F, rng.integers(0, q, size=4).tolist(), lam)
        for lam in range(1, q)
    ]
    got = [preserves_form(F, m) for m in matrices + symplectic]
    assert got == [_reference_preserves_form(F, m) for m in matrices + symplectic]
    assert all(got[len(matrices):])


def test_preserves_form_builds_no_point_table(monkeypatch):
    monkeypatch.setattr(plinth.algebra, "_PG3", None)
    eye = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    assert preserves_form(Field(4), eye)
    assert not preserves_form(Field(4), ((1, 0, 1, 0),) + eye[1:])


@pytest.mark.parametrize("q,lines_per_point", [(2, 3), (4, 5)])
def test_symplectic_gq_axioms(q, lines_per_point):
    geom = symplectic_gq(q)
    n_points = (q**4 - 1) // (q - 1)
    assert geom.num_points == n_points
    assert len(geom.lines) == n_points
    # GQ(q,q): every line has q+1 points, every point is on q+1 lines
    assert all(len(line) == q + 1 for line in geom.lines)
    assert all(len(ls) == lines_per_point for ls in geom.point_lines)
    # two distinct lines meet in at most one point
    for i in range(0, len(geom.lines), 7):
        for j in range(i + 1, len(geom.lines), 11):
            assert len(set(geom.lines[i]) & set(geom.lines[j])) <= 1


# ---------------------------------------------------------------------------
# Aut W(q) from Sp(4,q), the Frobenius and the Klein duality


def _built_aut(q):
    geom = symplectic_gq(q)
    sp_gens = extend_to_lines(geom, sp4(q).group.generators)
    return geom, gq_automorphism_group(geom, sp_gens)


def _reference_duality(q):
    """delta's images on the points and lines of W(q): one scalar
    Plucker computation per line, one set lookup per point."""
    F = Field(q)
    points, lines, point_lines = _reference_gq(q)
    index = {v: i for i, v in enumerate(points)}
    line_point = []
    for line in lines:
        x, y = points[line[0]], points[line[1]]

        def p(i, j):
            return int(F.add[F.mul[x[i], y[j]], F.mul[x[j], y[i]]])

        klein = (p(0, 2), p(1, 3), p(0, 3), p(1, 2))
        line_point.append(index[_normalize(F, klein)])
    line_of = {frozenset(line): i for i, line in enumerate(lines)}
    point_line = [
        len(points) + line_of[frozenset(line_point[li] for li in ls)]
        for ls in point_lines
    ]
    return point_line + line_point


@pytest.mark.parametrize("q", [2, 4])
def test_duality_matches_the_scalar_reference(q):
    # without Sp(4,q) the builder still gives phi and delta
    delta = gq_automorphism_group(symplectic_gq(q), []).generators[-1]
    assert delta.images.tolist() == _reference_duality(q)


@pytest.mark.parametrize("q", [2, 4])
def test_frobenius_squares_each_coordinate(q):
    geom, aut = _built_aut(q)
    F = geom.field
    index = {v: i for i, v in enumerate(geom.points)}
    phi = aut.generators[-2]
    squares = [index[tuple(int(F.mul[x, x]) for x in v)] for v in geom.points]
    assert phi.images[: geom.num_points].tolist() == squares


@pytest.mark.parametrize("q", [2, 4])
def test_duality_swaps_points_and_lines(q):
    geom, aut = _built_aut(q)
    P = geom.num_points
    delta = aut.generators[-1]
    assert (delta.images[:P] >= P).all()
    assert (delta.images[P:] < P).all()
    # the other generators keep the two sides
    for g in aut.generators[:-1]:
        assert (g.images[:P] < P).all()


@pytest.mark.parametrize("q", [2, 4])
def test_duality_with_a_line_image_changed_breaks_incidence(q):
    geom, aut = _built_aut(q)
    P = geom.num_points
    images = aut.generators[-1].images.copy()
    # line 0 goes to line 1's point and back, so delta stays a bijection
    images[[P, P + 1]] = images[[P + 1, P]]
    assert not is_automorphism(incidence_graph(geom).graph, Permutation(images))


@pytest.mark.parametrize(
    "q,order", [(2, 1440), (4, 3916800), (8, 6340239360)]
)
def test_built_aut_order(q, order):
    # Theorem 4.1's Aut T = Sp4(q).Ca.C2: |Sp(4,q)| = q^4 (q^2 - 1)(q^4 - 1)
    # times a times 2; at q = 8, 1,056,706,560 times 3 times 2
    assert _built_aut(q)[1].order() == order


def test_a_point_map_that_is_no_collineation_has_no_line_images():
    geom = symplectic_gq(4)
    swap = Permutation.from_cycles(geom.num_points, [(0, 1)])
    with pytest.raises(ConstructionFailed):
        extend_to_lines(geom, [swap])


def test_builder_rejects_a_generator_that_breaks_incidence():
    geom = symplectic_gq(2)
    n = geom.num_points + geom.num_lines
    with pytest.raises(ConstructionFailed):
        gq_automorphism_group(geom, [Permutation.from_cycles(n, [(0, 1)])])
