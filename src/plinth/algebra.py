"""Finite fields and classical groups as permutation groups.

Fields are stored as exp/log tables over fixed primitive polynomials so
arithmetic is deterministic across platforms.  The projective actions
built here (PSL(2,q) flavors on the projective line, Sp(4,q) on
projective 4-space points) feed the graph and verification layers.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstructionFailed, UnsupportedFlavor
from .perm import Permutation, PermGroup

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


class Field:
    """GF(p^k) with exp/log tables.

    Elements are integers in [0, q): for prime fields the residues
    themselves, for extension fields base-p digit strings of polynomial
    coefficients (constant term least significant).
    """

    def __init__(self, q):
        factors = _factorize(q)
        if len(factors) != 1:
            raise ValueError(f"{q} is not a prime power")
        (p, k), = factors.items()
        if q > 2**16:
            raise ValueError("field too large")
        self.q = q
        self.p = p
        self.k = k
        self._exp = np.zeros(q - 1, dtype=np.int64)
        self._log = np.full(q, -1, dtype=np.int64)
        if k == 1:
            gen = self._find_primitive_root(p)
            x = 1
            for i in range(q - 1):
                self._exp[i] = x
                self._log[x] = i
                x = (x * gen) % p
        else:
            try:
                poly = _PRIMITIVE_POLYS[(p, k)]
            except KeyError:
                raise ValueError(f"no primitive polynomial on file for GF({q})")
            x = 1
            for i in range(q - 1):
                self._exp[i] = x
                if self._log[x] != -1:
                    raise ConstructionFailed("polynomial is not primitive")
                self._log[x] = i
                x = self._mul_by_x(x, poly)
        if (self._log[1:] == -1).any():
            raise ConstructionFailed("multiplicative group not cyclic of full order")
        # addition table digitwise mod p, vectorized over digit planes
        self._add_table = self._build_add_table()

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
        if self.k == 1:
            a = np.arange(self.q)
            return (a[:, None] + a[None, :]) % self.p
        a = np.arange(self.q)
        table = np.zeros((self.q, self.q), dtype=np.int64)
        pw = 1
        for _ in range(self.k):
            da = (a // pw) % self.p
            table += ((da[:, None] + da[None, :]) % self.p) * pw
            pw *= self.p
        return table

    # -- arithmetic -----------------------------------------------------

    def add(self, a, b):
        return int(self._add_table[a, b])

    def neg(self, a):
        if a == 0:
            return 0
        if self.p == 2:
            return a
        digits = [(self.p - d) % self.p for d in self._digits(a)]
        return self._undigits(digits)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(self._log[a] + self._log[b]) % (self.q - 1)])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self._exp[(-self._log[a]) % (self.q - 1)])

    def pow(self, a, e):
        if a == 0:
            return 0 if e else 1
        return int(self._exp[(self._log[a] * e) % (self.q - 1)])

    def frobenius(self, a):
        return self.pow(a, self.p)

    def primitive_element(self):
        return int(self._exp[1]) if self.q > 2 else 1

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"Field(GF({self.q}))"


# ---------------------------------------------------------------------------
# PSL(2,q) family on the projective line

#: Point index of infinity on PG(1,q) is q; field element a is point a.
def _projective_perm(q, fn):
    images = np.empty(q + 1, dtype=np.int64)
    for x in range(q + 1):
        images[x] = fn(x)
    return Permutation(images)


def psl2_action(q, flavor="PSL"):
    """Projective (semi)linear action on the q+1 points of PG(1,q).

    Flavors: PSL, PGL, PSigmaL, M10, PGammaL.  The semilinear flavors
    need q a proper prime power; M10 exists only at q=9.
    """
    if q < 4:
        raise ValueError("q must be at least 4")
    F = Field(q)
    INF = q

    def translation(a):
        return _projective_perm(q, lambda x: INF if x == INF else F.add(x, a))

    def inversion():
        # x -> -1/x, swapping 0 and infinity
        def fn(x):
            if x == INF:
                return 0
            if x == 0:
                return INF
            return F.neg(F.inv(x))

        return _projective_perm(q, fn)

    def scale(nu):
        return _projective_perm(
            q, lambda x: INF if x == INF else F.mul(nu, x)
        )

    def frobenius():
        return _projective_perm(
            q, lambda x: INF if x == INF else F.frobenius(x)
        )

    def scale_frobenius(nu):
        return _projective_perm(
            q, lambda x: INF if x == INF else F.mul(nu, F.frobenius(x))
        )

    # translations over a field basis plus inversion generate PSL(2,q)
    basis = [F.pow(F.primitive_element(), 0)]
    for i in range(1, F.k):
        basis.append(F._undigits([0] * i + [1] + [0] * (F.k - 1 - i)))
    gens = [translation(a) for a in basis] + [inversion()]
    nu = F.primitive_element()

    if flavor == "PSL":
        return PermGroup(gens)
    if flavor == "PGL":
        return PermGroup(gens + [scale(nu)])
    if F.k == 1:
        raise UnsupportedFlavor(f"{flavor} needs a proper prime power")
    if flavor == "PSigmaL":
        return PermGroup(gens + [frobenius()])
    if flavor == "PGammaL":
        return PermGroup(gens + [scale(nu), frobenius()])
    if flavor == "M10":
        if q != 9:
            raise UnsupportedFlavor("M10 flavor exists only at q = 9")
        return PermGroup(gens + [scale_frobenius(nu)])
    raise UnsupportedFlavor(flavor)


def identify_extension_flavor(G):
    """Name a group between PSL(2,9) and PGammaL(2,9) by its order and
    element-order spectrum."""
    from .errors import Unrecognized

    order = G.order()
    if order % 360 or 1440 % order:
        raise Unrecognized(f"order {order} outside [PSL, PGammaL] range")
    if order == 360:
        return "PSL"
    if order == 1440:
        return "PGammaL"
    if order != 720:
        raise Unrecognized(f"order {order} is not an index-2 extension")
    spectrum = set(G.element_order_spectrum())
    if 10 in spectrum:
        return "PGL"
    if 8 in spectrum:
        return "M10"
    if max(spectrum) == 6:
        return "PSigmaL"
    raise Unrecognized(f"element-order spectrum {sorted(spectrum)} matches no rule")


# ---------------------------------------------------------------------------
# Sp(4,q), q even, and its generalized quadrangle

# Alternating form: B(x,y) = x1 y2 + x2 y1 + x3 y4 + x4 y3 (char 2).
_J = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))


def _form(F, x, y):
    total = 0
    total = F.add(total, F.mul(x[0], y[1]))
    total = F.add(total, F.mul(x[1], y[0]))
    total = F.add(total, F.mul(x[2], y[3]))
    total = F.add(total, F.mul(x[3], y[2]))
    return total


def _dot(F, u, v):
    total = 0
    for x, y in zip(u, v):
        total = F.add(total, F.mul(x, y))
    return total


def _vec_mat(F, v, m):
    return tuple(_dot(F, v, tuple(m[r][j] for r in range(4))) for j in range(4))


def preserves_form(F, m):
    """Whether m^T J m = J for the fixed alternating form."""
    for i in range(4):
        for j in range(4):
            ei = tuple(int(r == i) for r in range(4))
            ej = tuple(int(r == j) for r in range(4))
            if _form(F, _vec_mat(F, ei, m), _vec_mat(F, ej, m)) != _J[i][j]:
                return False
    return True


def projective_points(F):
    """Normalized representatives of 1-spaces of F^4, lexicographic."""
    points = []
    for a in range(F.q**4):
        v = []
        rest = a
        for _ in range(4):
            v.append(rest % F.q)
            rest //= F.q
        v = tuple(reversed(v))
        if not any(v):
            continue
        lead = next(x for x in v if x)
        if lead != 1:
            continue
        points.append(v)
    return points


def _normalize(F, v):
    lead = next(x for x in v if x)
    c = F.inv(lead)
    return tuple(F.mul(c, x) for x in v)


def _transvection(F, v, lam):
    """Matrix of x -> x + lam B(x,v) v, a symplectic transvection."""
    jv = tuple(_dot(F, _J[i], v) for i in range(4))
    m = []
    for i in range(4):
        row = []
        for j in range(4):
            entry = int(i == j)
            entry = F.add(entry, F.mul(F.mul(lam, jv[i]), v[j]))
            row.append(entry)
        m.append(tuple(row))
    return tuple(m)


class MatrixActionGroup:
    """A permutation group together with the matrices behind its generators."""

    def __init__(self, field, points, group, matrices):
        self.field = field
        self.points = points
        self.point_index = {p: i for i, p in enumerate(points)}
        self.group = group
        self.matrices = matrices


def sp4(q):
    """Sp(4,q) for even q, acting on the (q^2+1)(q+1) projective points.

    Built from symplectic transvections added in a fixed order until the
    chain order reaches q^4 (q^2-1)(q^4-1); the scan failing to get
    there would be a construction bug.
    """
    F = Field(q)
    if F.p != 2:
        raise ValueError("only even q supported")
    points = projective_points(F)
    index = {v: i for i, v in enumerate(points)}
    target = q**4 * (q * q - 1) * (q**4 - 1)

    def perm_of(m):
        images = np.empty(len(points), dtype=np.int64)
        for i, v in enumerate(points):
            images[i] = index[_normalize(F, _vec_mat(F, v, m))]
        return Permutation(images)

    gens = []
    mats = []
    group = None
    lams = [1, F.primitive_element()] if q > 2 else [1]
    for v in points:
        for lam in lams:
            m = _transvection(F, v, lam)
            if not preserves_form(F, m):
                raise ConstructionFailed("transvection breaks the form")
            gens.append(perm_of(m))
            mats.append(m)
        group = PermGroup(gens)
        if group.order() == target:
            return MatrixActionGroup(F, points, group, mats)
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
        raise ValueError("only even q supported")
    points = projective_points(F)
    index = {v: i for i, v in enumerate(points)}
    lines = set()
    for i, u in enumerate(points):
        for j in range(i + 1, len(points)):
            v = points[j]
            if _form(F, u, v) != 0:
                continue
            span = {i, j}
            for c in range(1, F.q):
                w = tuple(F.add(u[t], F.mul(c, v[t])) for t in range(4))
                span.add(index[_normalize(F, w)])
            lines.add(tuple(sorted(span)))
    lines = sorted(lines)
    point_lines = [[] for _ in points]
    for li, line in enumerate(lines):
        for p in line:
            point_lines[p].append(li)
    return GQGeometry(F, points, lines, point_lines)
