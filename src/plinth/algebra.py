"""Finite fields and classical groups as permutation groups.

Fields are stored as exp/log tables over fixed primitive polynomials so
arithmetic is deterministic across platforms.  The projective actions
built here (PSL(2,q) flavors on the projective line, Sp(4,q) on
projective 4-space points) feed the graph and verification layers.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConstructionFailed,
    TooLarge,
    Unrecognized,
    UnsupportedField,
    UnsupportedFlavor,
)
from .perm import (
    ENUMERATION_BOUND,
    Permutation,
    PermGroup,
    point_stabilizer,
    stabilizer_orbit_sizes,
)

# Primitive polynomials for the supported extension fields, written as
# coefficient tuples (c0, c1, ..., c_{k-1}) of x^k = c0 + c1 x + ...
# Primitivity is re-verified at construction time.
_PRIMITIVE_POLYS = {
    (2, 2): (1, 1),            # x^2 = x + 1
    (2, 3): (1, 1, 0),         # x^3 = x + 1
    (2, 4): (1, 1, 0, 0),      # x^4 = x + 1
    (2, 5): (1, 0, 1, 0, 0),   # x^5 = x^2 + 1
    (3, 2): (1, 1),            # x^2 = x + 1 over GF(3)
    (3, 3): (2, 1, 0),         # x^3 = x + 2
    (5, 2): (3, 1),            # x^2 = x + 3
    (7, 2): (2, 2),            # x^2 = 2x + 2
}


def _factorize(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def check_field_order(q):
    """(p, k) with q = p^k, for a q whose field ``Field`` can build.

    The bound comes first, as GF(q) holds q x q tables and factorising
    a huge q would take long: TooLarge past ``ENUMERATION_BOUND``
    entries, then UnsupportedField for a q that is not a prime power or
    whose field has no primitive polynomial on file.
    """
    if q * q > ENUMERATION_BOUND:
        raise TooLarge(
            f"GF({q}) needs {q} x {q} tables, above {ENUMERATION_BOUND} entries"
        )
    factors = _factorize(q)
    if len(factors) != 1:
        raise UnsupportedField(f"{q} is not a prime power")
    (p, k), = factors.items()
    if k > 1 and (p, k) not in _PRIMITIVE_POLYS:
        raise UnsupportedField(f"no primitive polynomial on file for GF({q})")
    return p, k


class Field:
    """GF(p^k) as lookup tables, which callers index directly.

    Elements are integers in [0, q): for prime fields the residues
    themselves, for extension fields base-p digit strings of polynomial
    coefficients (constant term least significant).  ``add[a, b]`` and
    ``mul[a, b]`` are q x q tables, ``inv[a]`` is the inverse of a
    nonzero a, ``exp[i]`` is the i-th power of the primitive element and
    ``log`` inverts ``exp`` (-1 at 0).
    """

    def __init__(self, q):
        p, k = check_field_order(q)
        self.q = q
        self.p = p
        self.k = k
        self.exp = np.zeros(q - 1, dtype=np.int64)
        self.log = np.full(q, -1, dtype=np.int64)
        # GF(p) is GF(p)[x]/(x - g) for a primitive root g
        poly = (self._find_primitive_root(p),) if k == 1 else _PRIMITIVE_POLYS[(p, k)]
        x = 1
        for i in range(q - 1):
            self.exp[i] = x
            if self.log[x] != -1:
                raise ConstructionFailed("polynomial is not primitive")
            self.log[x] = i
            x = self._mul_by_x(x, poly)
        if (self.log[1:] == -1).any():
            raise ConstructionFailed("multiplicative group not cyclic of full order")
        # addition table digitwise mod p, vectorized over digit planes
        self.add = self._build_add_table()
        nonzero = self.log[1:]
        self.mul = np.zeros((q, q), dtype=np.int64)
        self.mul[1:, 1:] = self.exp[
            (nonzero[:, None] + nonzero[None, :]) % (q - 1)
        ]
        self.inv = np.zeros(q, dtype=np.int64)
        self.inv[1:] = self.exp[-nonzero % (q - 1)]

    @staticmethod
    def _find_primitive_root(p):
        if p == 2:
            return 1
        factors = _factorize(p - 1)
        for g in range(2, p):
            if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
                return g
        raise ConstructionFailed("no primitive root found")

    def _mul_by_x(self, a, poly):
        digits = self._digits(a)
        carry = digits[-1]
        shifted = [0] + digits[:-1]
        if carry:
            for i, c in enumerate(poly):
                shifted[i] = (shifted[i] + carry * c) % self.p
        return self._undigits(shifted)

    def _digits(self, a):
        out = []
        for _ in range(self.k):
            out.append(a % self.p)
            a //= self.p
        return out

    def _undigits(self, digits):
        out = 0
        for d in reversed(digits):
            out = out * self.p + d
        return out

    def _build_add_table(self):
        a = np.arange(self.q)
        table = np.zeros((self.q, self.q), dtype=np.int64)
        pw = 1
        for _ in range(self.k):
            da = (a // pw) % self.p
            table += ((da[:, None] + da[None, :]) % self.p) * pw
            pw *= self.p
        return table

    def primitive_element(self):
        return int(self.exp[1]) if self.q > 2 else 1

    def __repr__(self):
        return f"Field(GF({self.q}))"


# ---------------------------------------------------------------------------
# PSL(2,q) family on the projective line

def psl2_action(q, flavor="PSL"):
    """Projective (semi)linear action on the q+1 points of PG(1,q).

    Flavors: PSL, PGL, PSigmaL, M10, PGammaL.  The semilinear flavors
    need q a proper prime power; M10 exists only at q=9.  Field element
    a is point a and infinity is point q.
    """
    if q < 4:
        raise UnsupportedField(f"PSL(2,{q}) on PG(1,q) needs q >= 4")
    F = Field(q)
    add, mul = F.add, F.mul
    nu = F.primitive_element()
    frob = np.zeros(q, dtype=np.int64)  # x -> x^p
    frob[1:] = F.exp[F.log[1:] * F.p % (q - 1)]

    def fixing_infinity(images):
        # field point x goes to images[x]
        return Permutation(np.append(images, q))

    # x -> -1/x, swapping 0 and infinity; -1 is p - 1 as a digit string
    inversion = np.empty(q + 1, dtype=np.int64)
    inversion[0], inversion[q] = q, 0
    inversion[1:q] = mul[F.p - 1, F.inv[1:]]
    # translations over a field basis plus inversion generate PSL(2,q)
    # (the GF(p)-basis 1, x, ..., x^(k-1) is p^i as a digit string)
    gens = [fixing_infinity(add[F.p**i]) for i in range(F.k)]
    gens.append(Permutation(inversion))

    if flavor == "PSL":
        return PermGroup(gens)
    if flavor == "PGL":
        return PermGroup(gens + [fixing_infinity(mul[nu])])
    if F.k == 1:
        raise UnsupportedFlavor(f"{flavor} needs a proper prime power")
    if flavor == "PSigmaL":
        return PermGroup(gens + [fixing_infinity(frob)])
    if flavor == "PGammaL":
        return PermGroup(gens + [fixing_infinity(mul[nu]), fixing_infinity(frob)])
    if flavor == "M10":
        if q != 9:
            raise UnsupportedFlavor("M10 flavor exists only at q = 9")
        return PermGroup(gens + [fixing_infinity(mul[nu, frob])])
    raise UnsupportedFlavor(flavor)


def identify_extension_flavor(G):
    """Name a group between PSL(2,9) and PGammaL(2,9) acting on the 10
    points of PG(1,9).  Of those of order 720, PGL(2,9) and M10 are
    sharply 3-transitive with two-point stabilizers C8 and Q8, and
    PSigmaL(2,9) is not 3-transitive."""
    if G.degree != 10:
        raise Unrecognized(f"degree {G.degree} is not the 10 points of PG(1,9)")
    order = G.order()
    if order % 360 or 1440 % order:
        raise Unrecognized(f"order {order} outside [PSL, PGammaL] range")
    if order == 360:
        return "PSL"
    if order == 1440:
        return "PGammaL"
    if order != 720:
        raise Unrecognized(f"order {order} is not an index-2 extension")
    sizes = stabilizer_orbit_sizes(G, 3)
    if sizes == [10, 9, 4]:
        return "PSigmaL"
    if sizes != [10, 9, 8]:
        raise Unrecognized(f"stabilizer orbit sizes {sizes} match no rule")
    gens = point_stabilizer(point_stabilizer(G, 0), 1).generators
    abelian = all(x * y == y * x for x in gens for y in gens)
    return "PGL" if abelian else "M10"


# ---------------------------------------------------------------------------
# Sp(4,q), q even, and its generalized quadrangle

# Alternating form: B(x,y) = x1 y2 + x2 y1 + x3 y4 + x4 y3 (char 2).
_J = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))


def _form(add, mul, x, y):
    """B(x, y) row by row, through a field's add and mul tables."""
    return add[
        add[mul[x[..., 0], y[..., 1]], mul[x[..., 1], y[..., 0]]],
        add[mul[x[..., 2], y[..., 3]], mul[x[..., 3], y[..., 2]]],
    ]


class _PG3:
    """The points of PG(3,q) and arithmetic on rows of F^4 (the last
    axis of an array) through the field's tables.

    Points are the rows whose first nonzero entry is 1, listed in the
    order of their codes (base-q digits, most significant first).
    """

    def __init__(self, F):
        q = F.q
        self.add = F.add
        self.mul = F.mul
        self._inv = F.inv
        self._digits = q ** np.arange(3, -1, -1)
        rows = np.arange(q**4)[:, None] // self._digits % q
        self.points = rows[self._lead(rows) == 1]
        self._index = np.full(q**4, -1, dtype=np.int64)
        self._index[self.points @ self._digits] = np.arange(len(self.points))

    @staticmethod
    def _lead(rows):
        """First nonzero entry of each row (0 for a zero row)."""
        at = (rows != 0).argmax(axis=-1)[..., None]
        return np.take_along_axis(rows, at, axis=-1)[..., 0]

    def index_of(self, rows):
        """Index of the point each nonzero row spans."""
        scaled = self.mul[rows, self._inv[self._lead(rows)][..., None]]
        return self._index[scaled @ self._digits]

    def times(self, rows, m):
        """Each row times the 4 x 4 matrix m."""
        out = np.zeros_like(rows)
        for j in range(4):
            for r in range(4):
                out[..., j] = self.add[out[..., j], self.mul[rows[..., r], m[r][j]]]
        return out

    def form(self, x, y):
        """B(x, y), row by row."""
        return _form(self.add, self.mul, x, y)

    def transvection(self, v, lam):
        """Matrix of x -> x + lam B(x,v) v, a symplectic transvection."""
        eye = np.eye(4, dtype=np.int64)
        jv = self.form(eye, v)  # B(e_i, v)
        m = self.add[eye, self.mul[self.mul[lam, jv][:, None], v[None, :]]]
        return tuple(map(tuple, m.tolist()))


def preserves_form(F, m):
    """Whether m^T J m = J for the fixed alternating form."""
    rows = np.asarray(m, dtype=np.int64)  # row i is e_i m
    form = _form(F.add, F.mul, rows[:, None], rows[None, :])
    return bool((form == _J).all())


class MatrixActionGroup:
    """A permutation group together with the matrices behind its generators."""

    def __init__(self, field, group, matrices):
        self.field = field
        self.group = group
        self.matrices = matrices


def sp4(q):
    """Sp(4,q) for even q, acting on the (q^2+1)(q+1) projective points.

    Grown from symplectic transvections taken in a fixed order until the
    chain order reaches q^4 (q^2-1)(q^4-1), keeping only those that
    enlarge the group; the scan failing to get there would be a
    construction bug.
    """
    F = Field(q)
    if F.p != 2:
        raise UnsupportedField(f"Sp(4,{q}) is built for even q only")
    pg = _PG3(F)
    target = q**4 * (q * q - 1) * (q**4 - 1)
    group = PermGroup.trivial(len(pg.points))
    mats = []
    lams = [1, F.primitive_element()] if q > 2 else [1]
    for v in pg.points:
        for lam in lams:
            m = pg.transvection(v, lam)
            if not preserves_form(F, m):
                raise ConstructionFailed("transvection breaks the form")
            if group.extend(Permutation(pg.index_of(pg.times(pg.points, m)))):
                mats.append(m)
        if group.order() == target:
            return MatrixActionGroup(F, group, mats)
    raise ConstructionFailed(
        f"transvections reached order {group.order()}, wanted {target}"
    )


class GQGeometry:
    """The generalized quadrangle W(q): projective points and totally
    isotropic lines of the alternating form, with incidence lists."""

    def __init__(self, field, points, lines, point_lines):
        self.field = field
        self.points = points
        self.lines = lines          # each a sorted tuple of point indices
        self.point_lines = point_lines

    @property
    def num_points(self):
        return len(self.points)

    @property
    def num_lines(self):
        return len(self.lines)


def symplectic_gq(q):
    """Points and totally isotropic lines of the form behind sp4(q)."""
    F = Field(q)
    if F.p != 2:
        raise UnsupportedField(f"W({q}) is built for even q only")
    pg = _PG3(F)
    pts = pg.points
    cs = np.arange(1, q)[None, :, None]
    lines = set()
    for i, u in enumerate(pts):
        # the line through u and each later point v with B(u, v) = 0 is
        # u, v and the points u + c v, c != 0
        js = i + 1 + np.flatnonzero(pg.form(u, pts[i + 1:]) == 0)
        span = np.concatenate(
            [
                np.full((len(js), 1), i),
                js[:, None],
                pg.index_of(pg.add[u, pg.mul[cs, pts[js][:, None, :]]]),
            ],
            axis=1,
        )
        span.sort(axis=1)
        lines.update(map(tuple, span.tolist()))
    points = list(map(tuple, pts.tolist()))
    lines = sorted(lines)
    point_lines = [[] for _ in points]
    for li, line in enumerate(lines):
        for p in line:
            point_lines[p].append(li)
    return GQGeometry(F, points, lines, point_lines)


# ---------------------------------------------------------------------------
# Aut W(q), q even: Sp(4,q), the Frobenius and the Klein duality


def _line_indices(lines, P, rows):
    """Index of the line of W(q) whose points are each sorted row.

    ``lines`` is the geometry's sorted line array on P points; two
    points fix a line, so the codes of each line's first two points are
    sorted and distinct.  ConstructionFailed when a row is not a line.
    """
    codes = lines[:, 0] * P + lines[:, 1]
    at = np.searchsorted(codes, rows[:, 0] * P + rows[:, 1])
    at = np.minimum(at, len(lines) - 1)
    if not (lines[at] == rows).all():
        raise ConstructionFailed("a set of points that should be a line is not one")
    return at


def extend_to_lines(geom, point_gens):
    """Each collineation of W(q), given on the points, extended to the
    lines: line i is vertex P + i, as in ``incidence_graph``, and goes
    to the line through its points' images."""
    lines = np.array(geom.lines, dtype=np.int64)
    P = geom.num_points
    out = []
    for g in point_gens:
        at = _line_indices(lines, P, np.sort(g.images[lines], axis=1))
        # lines go to distinct lines, as g is a bijection on the points
        out.append(Permutation(np.concatenate([g.images, P + at]), _checked=True))
    return out


def gq_automorphism_group(geom, sp_gens):
    """The group generated by Sp(4,q), the Frobenius and a duality,
    on the points and lines of W(q) for q = 2^a (vertices numbered as
    in ``incidence_graph``).

    ``sp_gens`` are Sp(4,q)'s generators on points and lines
    (``extend_to_lines``).  The Frobenius phi squares each coordinate.
    The duality delta is the Klein correspondence: the line <x, y> goes
    to the point (p02, p13, p03, p12), p_ij = x_i y_j + x_j y_i, and a
    point x to the line through the images of the q+1 lines on x; W(q)
    is self-dual for even q (Payne and Thas, *Finite Generalized
    Quadrangles*, 2nd ed., 2009).  Every generator is checked with
    ``is_automorphism`` on the incidence graph; the order is left to
    the chain, unclaimed.
    """
    # graphs, and autgq through it, import actions, which imports this
    # module
    from .autgq import incidence_graph
    from .graphs import is_automorphism

    F = geom.field
    pg = _PG3(F)
    add, mul = F.add, F.mul
    lines = np.array(geom.lines, dtype=np.int64)
    P, L = geom.num_points, geom.num_lines
    (phi,) = extend_to_lines(
        geom, [Permutation(pg.index_of(mul[pg.points, pg.points]))]
    )
    x, y = pg.points[lines[:, 0]], pg.points[lines[:, 1]]

    def plucker(i, j):
        return add[mul[x[:, i], y[:, j]], mul[x[:, j], y[:, i]]]

    klein = np.stack(
        [plucker(0, 2), plucker(1, 3), plucker(0, 3), plucker(1, 2)], axis=1
    )
    line_point = pg.index_of(klein)
    point_lines = np.array(geom.point_lines, dtype=np.int64)
    point_line = _line_indices(lines, P, np.sort(line_point[point_lines], axis=1))
    delta = Permutation(np.concatenate([P + point_line, line_point]))
    gens = list(sp_gens) + [phi, delta]
    graph = incidence_graph(geom).graph
    for g in gens:
        if not is_automorphism(graph, g):
            raise ConstructionFailed("a generator of Aut W(q) breaks incidence")
    return PermGroup(gens, degree=P + L)
