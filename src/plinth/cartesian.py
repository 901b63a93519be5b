"""Cartesian decompositions, inclusion types, and factorization checks.

A cartesian decomposition is a set of partitions of the point set whose
blocks intersect pairwise-transversally in singletons, turning the
point set into a grid.  This module finds grids preserved by a group,
classifies how a group with a given plinth sits inside the
corresponding wreath product, re-embeds along a blow-up, and verifies
the PSL(2,q) factorization tables that feed the classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

import numpy as np

from .actions import (
    EncodedProductAction,
    _block_reps,
    _normalize_labels,
    _top_images,
    component,
    coset_action,
    top_projection,
)
from .errors import (
    ConstructionFailed,
    Mismatch,
    NotDecompositionPreserving,
    NotXSubgroup,
    NotInvariant,
    NotTransitive,
    ParseError,
    ProjectionUnsupported,
    TooLarge,
    TooManyComponents,
)
from .perm import (
    _DTYPE,
    PermGroup,
    Permutation,
    SubgroupRef,
    _as_group,
    _orbit_labels,
    derived_subgroup,
    element_of_order,
    intersection_small,
    minimal_block_systems,
    point_stabilizer,
    random_subgroup_of_order,
    reduce_generators,
)


class CartesianDecomposition:
    """Partitions of the point set with the singleton-grid property.

    Each partition is a point -> block-id array; block ids are
    normalized by minimum point.  Construction verifies exhaustively
    that every choice of one block per partition meets in exactly one
    point.
    """

    def __init__(self, partitions):
        if len(partitions) < 2:
            raise ValueError("a decomposition needs at least two partitions")
        self.partitions = [_normalize_labels(lab) for lab in partitions]
        n = len(self.partitions[0])
        self.degree = n
        self.block_counts = [int(lab.max()) + 1 for lab in self.partitions]
        total = 1
        for b in self.block_counts:
            total *= b
        if total != n:
            raise ValueError("block counts do not multiply to the degree")
        code = self.partitions[0].astype(np.int64)
        for lab, b in zip(self.partitions[1:], self.block_counts[1:]):
            code = code * b + lab
        if len(np.unique(code)) != n:
            raise ValueError("blocks do not intersect in singletons")
        self.grid_code = code

    @property
    def arity(self):
        return len(self.partitions)

    def block_of(self, j, point):
        return int(self.partitions[j][point])

    def signature(self):
        """Canonical bytes identifying the decomposition as a set."""
        sigs = sorted(lab.tobytes() for lab in self.partitions)
        return b"|".join(sigs)


# ---------------------------------------------------------------------------
# grid discovery


INDEX2_QUOTIENT_CAP = 512


def index2_subgroups(G, derived=None):
    """Kernels of the homomorphisms from G onto C2.

    Every index-2 subgroup contains the derived subgroup D, so the
    quotient G/D is enumerated explicitly (G acts regularly on the
    cosets of the normal subgroup D), its index-2 subgroups are read
    off the signs of its generators, and each is lifted back.
    ``derived`` may supply a normal subgroup known to lie in every
    index-2 subgroup (for example a simple normal subgroup), skipping
    the derived-subgroup computation.
    """
    if G.order() % 2:
        return []
    D = derived if derived is not None else derived_subgroup(G)
    D_group = _as_group(D)
    index = G.order() // D_group.order()
    if index % 2:
        return []
    if index > INDEX2_QUOTIENT_CAP:
        raise TooLarge(f"quotient order {index} exceeds {INDEX2_QUOTIENT_CAP}")
    quotient = coset_action(G, D_group)
    found = []
    # distinct sign vectors on a generating set give distinct kernels
    for qk in _index2_point_sets(quotient.group):
        gens = list(D_group.generators)
        gens.extend(Permutation(quotient.reps[i], _checked=True) for i in qk)
        # the lifted order is exact: the kernel contains D and maps
        # onto an index-2 subgroup of the regular quotient
        K = PermGroup(
            gens, degree=G.degree, claimed_order=G.order() // 2
        )
        if K.order() != G.order() // 2:
            raise RuntimeError("lifted kernel missed its certified order")
        found.append(K)
    return found


def _index2_point_sets(Q):
    """Index-2 subgroups of a regular group Q, as sets of points.

    Q acts regularly, so point p stands for the unique element sending
    0 to p, and a homomorphism Q -> C2 is fixed by its signs on a
    generating set.  Each generator kept by ``reduce_generators`` at
    least doubles the order, so there are at most log2 |Q| of them.  For
    each nonzero sign vector the points are labelled from 0 by parity
    along the generators; a labelling without conflict is a
    homomorphism, and its kernel is the set of points labelled 0.
    """
    n = Q.degree
    gens = [g.images for g in reduce_generators(Q).generators]
    out = []
    for mask in range(1, 2 ** len(gens)):
        signs = [(mask >> i) & 1 for i in range(len(gens))]
        parity = [-1] * n
        parity[0] = 0
        frontier = [0]
        consistent = True
        while frontier and consistent:
            p = frontier.pop()
            for images, sign in zip(gens, signs):
                q = int(images[p])
                want = parity[p] ^ sign
                if parity[q] == -1:
                    parity[q] = want
                    frontier.append(q)
                elif parity[q] != want:
                    consistent = False
                    break
        if consistent:
            out.append([p for p in range(n) if parity[p] == 0])
    return out


def find_grid_decompositions(G, ell_max=2, extra_groups=None):
    """G-invariant cartesian decompositions built from minimal block
    systems of G and of its index-2 subgroups.

    ``extra_groups`` may supply precomputed index-2 subgroups (as
    PermGroups on the same points) to skip the derived-subgroup route.
    """
    if not G.is_transitive():
        raise NotTransitive("grid search needs a transitive group")
    if ell_max < 2 or ell_max > 3:
        raise ValueError("ell_max must be 2 or 3")
    sources = [G]
    if extra_groups is not None:
        sources.extend(extra_groups)
    else:
        sources.extend(index2_subgroups(G))
    systems = []
    seen = set()
    for H in sources:
        for lab in minimal_block_systems(H):
            lab = _normalize_labels(lab)
            key = lab.tobytes()
            if key not in seen:
                seen.add(key)
                systems.append(lab)
    out = []
    out_keys = set()
    for subset in _subsets(len(systems), ell_max):
        labs = [systems[i] for i in subset]
        try:
            E = CartesianDecomposition(labs)
        except ValueError:
            continue
        if not _group_permutes_partitions(G, E):
            continue
        key = E.signature()
        if key not in out_keys:
            out_keys.add(key)
            out.append(E)
    return out


def _subsets(n, kmax):
    from itertools import combinations

    for k in range(2, kmax + 1):
        yield from combinations(range(n), k)


def _group_permutes_partitions(G, E):
    try:
        _top_images(G, E)
    except NotDecompositionPreserving:
        return False
    return True


# ---------------------------------------------------------------------------
# inclusion classification


@dataclass
class InclusionType:
    """Verdict on how (G, M) sits inside Sym(block) wr Sym(ell)."""

    tag: str
    s: int
    projection_orders: tuple = ()
    iso_verdict: str = ""
    details: dict = field(default_factory=dict)


def _factor_moves_partition(factor, E, j, first):
    lab = E.partitions[j]
    for g in factor.generators:
        if (lab[g.images[first]] != np.arange(len(first))).any():
            return True
    return False


def _orbit_length_multiset(group):
    return tuple(sorted(len(o) for o in group.orbits()))


def classify_inclusion(G, M, E, omega=0, factors=None):
    """Inclusion type of (G, M) with respect to the decomposition E.

    ``factors`` lists the simple direct factors of the plinth M
    (default: M itself, the simple-plinth case).  The verdict counts,
    per simple factor, the number s of partitions the factor moves;
    s must be the same for every factor and at most 3.
    """
    M_group = _as_group(M)
    if factors is None:
        factor_groups = [M_group]
    else:
        factor_groups = [_as_group(f) for f in factors]
    # normality of M in G, spot-checked on generators
    for g in G.generators:
        for m in M_group.generators:
            if not M_group.contains(m.conjugate(g)):
                raise ValueError("plinth is not normal in the group")
    top = top_projection(G, E)
    if not top.is_transitive():
        return InclusionType("IntransitiveTop", 0)

    ell = E.arity
    firsts = [_block_reps(E, j) for j in range(ell)]
    moved = []
    for f in factor_groups:
        moved.append(
            [j for j in range(ell) if _factor_moves_partition(f, E, j, firsts[j])]
        )
    s_values = {len(mv) for mv in moved}
    if len(s_values) != 1:
        raise ValueError(f"components per factor disagree: {moved}")
    s = s_values.pop()
    if s > 3:
        raise TooManyComponents(f"factor meets {s} components")

    details = {"moved_partitions": moved}
    if s == 1:
        # every simple factor lives in one component: normal inclusion
        comp_stab_orders = []
        M_omega = point_stabilizer(M_group, omega)
        for j in range(ell):
            comp = component(M_group, E, j)
            delta = E.block_of(j, omega)
            comp_stab_orders.append(point_stabilizer(comp, delta).order())
        prod = 1
        for o in comp_stab_orders:
            prod *= o
        details["plinth_point_stabilizer_order"] = M_omega.order()
        details["component_block_stabilizer_orders"] = comp_stab_orders
        details["stabilizer_product_formula_holds"] = prod == M_omega.order()
        return InclusionType("Normal", 1, tuple(comp_stab_orders), "", details)

    if len(factor_groups) > 1:
        supports = [
            frozenset(p for o in f.orbits() if len(o) > 1 for p in o)
            for f in factor_groups
        ]
        for i in range(len(supports)):
            for j in range(i + 1, len(supports)):
                if supports[i] & supports[j]:
                    raise ProjectionUnsupported(
                        "overlapping factor supports with s >= 2"
                    )

    if s == 3:
        return InclusionType("CD3", 3, (), "", details)

    # s = 2: compare the block-stabilizer projections of the plinth
    j1, j2 = moved[0][:2]
    projections = []
    for j in (j1, j2):
        comp = component(M_group, E, j)
        delta = E.block_of(j, omega)
        projections.append((comp, point_stabilizer(comp, delta)))
    orders = tuple(p.order() for _, p in projections)
    full = any(p.order() == comp.order() for comp, p in projections)
    if full:
        return InclusionType("CD1S", 2, orders, "", details)
    a, b = (p.group for _, p in projections)
    same = (
        a.order() == b.order()
        and a.element_order_spectrum() == b.element_order_spectrum()
        and _orbit_length_multiset(a) == _orbit_length_multiset(b)
    )
    details["isomorphism_test"] = (
        "order + element-order spectrum + orbit-length multiset"
    )
    tag = "CD2Sim" if same else "CD2NotSim"
    return InclusionType(tag, 2, orders, "heuristic-match" if same else "proven-distinct", details)


# ---------------------------------------------------------------------------
# blow-up embedding

def blowup_embedding(G, factors, omega=0):
    """Re-embed G into a product action along a direct decomposition of
    its plinth whose point stabilizer splits across the factors.

    Returns (EncodedProductAction, certificate dict).  The partitions
    of the induced grid are the orbit partitions of the complements
    of each factor; the point bijection is the grid code.  The
    certificate records ``top_images``, each generator's permutation of
    the partitions: G permutes them, so its relabelling through the grid
    code lies in Sym(Xi) wr S_ell.
    """
    factor_groups = [_as_group(f) for f in factors]
    n = G.degree
    # the decomposition must be G-invariant: conjugation permutes factors
    for g in G.generators:
        for f in factor_groups:
            hits = set()
            for m in f.generators:
                c = m.conjugate(g)
                owners = [
                    i for i, h in enumerate(factor_groups) if h.contains(c)
                ]
                if not owners:
                    raise NotInvariant("conjugated factor generator escapes")
                hits.add(owners[0])
            if len(hits) != 1:
                raise NotInvariant("a factor is torn apart by conjugation")

    all_gens = [g for f in factor_groups for g in f.generators]
    M_group = PermGroup(all_gens, degree=n)
    if not M_group.is_transitive():
        raise NotTransitive("plinth must be transitive")
    M_omega = point_stabilizer(M_group, omega)
    meet_orders = []
    for f in factor_groups:
        meet = intersection_small(M_omega.group, f)
        meet_orders.append(meet.order())
    prod = 1
    for o in meet_orders:
        prod *= o
    if prod != M_omega.order():
        raise NotXSubgroup(
            f"stabilizer order {M_omega.order()} != split product {prod}"
        )

    # partition i: orbits of the product of all factors except i
    partitions = []
    for i in range(len(factor_groups)):
        others = [
            g.images
            for k, f in enumerate(factor_groups)
            if k != i
            for g in f.generators
        ]
        partitions.append(_orbit_labels(others, n)[0])
    E = CartesianDecomposition(partitions)
    tops = _top_images(G, E)  # raises when G fails to permute the partitions

    sizes = set(E.block_counts)
    if len(sizes) != 1:
        raise NotXSubgroup("coset spaces of the factors differ in size")
    xi = sizes.pop()
    code = E.grid_code

    # relabel G through the grid code
    relabeled = []
    for g in G.generators:
        images = np.empty(n, dtype=_DTYPE)
        images[code] = code[g.images]
        relabeled.append(Permutation(images, _checked=True))
    embedded = PermGroup(relabeled, degree=n, claimed_order=G.order())
    action = EncodedProductAction(xi, E.arity, embedded, E)

    certificate = {
        "point_bijection": code,
        "xi_size": xi,
        "arity": E.arity,
        "factor_meet_orders": meet_orders,
        "top_images": [t.images.tolist() for t in tops],
    }
    return action, certificate


# ---------------------------------------------------------------------------
# factorization checks


def strong_factorization_check(T, subgroups):
    """Whether A_1, ..., A_s form a strong multiple factorization of T.

    For every r the product condition A_r * (meet of the others) = T is
    evaluated by order arithmetic on computed intersections.
    """
    if len(subgroups) < 2 or len(subgroups) > 3:
        raise ValueError("need 2 or 3 subgroups")
    t_order = T.order()
    detail = {"T_order": t_order, "conditions": []}
    ok = True
    groups = [_as_group(a) for a in subgroups]
    for r in range(len(groups)):
        rest = [g for i, g in enumerate(groups) if i != r]
        meet = rest[0]
        for other in rest[1:]:
            meet = _as_group(intersection_small(meet, other))
        inner = _as_group(intersection_small(groups[r], meet))
        holds = groups[r].order() * meet.order() == t_order * inner.order()
        detail["conditions"].append(
            {
                "r": r,
                "A_r_order": groups[r].order(),
                "rest_meet_order": meet.order(),
                "inner_meet_order": inner.order(),
                "holds": holds,
            }
        )
        ok = ok and holds
    return ok, detail


@dataclass
class FactorizationRecord:
    q: int
    a_label: str
    a_order: int
    b_label: str
    b_order: int
    meet_order: int
    anchor: str
    verified: bool
    attempts: int = 1


#: Random draws per element of the cyclic half in ``dihedral_subgroup``.
INVOLUTION_TRIES = 400


def dihedral_subgroup(T, order, seed=1):
    """A dihedral subgroup of the given (even) order: a cyclic half
    plus a seeded-random search for an inverting involution."""
    if order % 2:
        raise ValueError("dihedral order must be even")
    half = order // 2
    a = element_of_order(T, half, seed=seed)
    if a is None:
        raise ConstructionFailed(f"no element of order {half}")
    a_inv = a.inverse()
    rng = Random(seed)
    chain = T.chain()
    for _ in range(INVOLUTION_TRIES * max(4, half)):
        g = chain.random_element(rng)
        o = g.order()
        if o % 2:
            continue
        t = g ** (o // 2)
        if a.conjugate(t) == a_inv:
            sub = PermGroup([a, t], degree=T.degree)
            if sub.order() == order:
                return SubgroupRef(T, [a, t], claimed_order=sub.order(), verify=False)
    raise ConstructionFailed(f"no inverting involution found for order {order}")


_SUBGROUP_PROFILES = {
    "A4": (12, (3, 2)),
    "S4": (24, (4, 3)),
    "A5": (60, (5, 3)),
}


def _build_labeled_subgroup(T, label, order, seed):
    """Construct a subgroup of T named by a table label."""
    if label == "P1":
        sub = point_stabilizer(T, 0)
        if sub.order() != order:
            raise ConstructionFailed(
                f"parabolic order {sub.order()}, table says {order}"
            )
        return sub
    if label.startswith("D"):
        want = int(label[1:])
        if want != order:
            raise ParseError(f"dihedral label {label} disagrees with order {order}")
        return dihedral_subgroup(T, order, seed=seed)
    if label.startswith("C"):
        want = int(label[1:])
        z = element_of_order(T, want, seed=seed)
        if z is None:
            raise ConstructionFailed(f"no element of order {want}")
        return SubgroupRef(T, [z], claimed_order=z.order(), verify=False)
    if label in _SUBGROUP_PROFILES:
        expect, profile = _SUBGROUP_PROFILES[label]
        if expect != order:
            raise ParseError(f"label {label} disagrees with order {order}")
        sub = random_subgroup_of_order(T, order, profile=profile, seed=seed)
        if sub is None:
            raise ConstructionFailed(f"no {label} subgroup found")
        return sub
    raise ParseError(f"unknown subgroup label {label}")


def verify_psl2_factorization_row(q, row, seed=1, max_attempts=40):
    """Verify one factorization row A * B = PSL(2,q) with the expected
    intersection order.

    A and B are rebuilt from their labels; because subgroup searches
    can land on a conjugate with a different intersection, the B (and
    A) construction is retried with shifted seeds until the expected
    intersection appears.  An intersection below the forced minimum
    |A||B|/|T| would contradict the table and raises Mismatch.
    """
    from .algebra import psl2_action

    a_label, a_order, b_label, b_order, meet_order, anchor = row
    T = psl2_action(q, "PSL")
    t_order = T.order()
    if (a_order * b_order) % meet_order or a_order * b_order // meet_order != t_order:
        raise Mismatch(
            f"q={q}: |A||B|/|meet| = {a_order * b_order}/{meet_order} != {t_order}"
        )
    forced_min = a_order * b_order // t_order
    if meet_order < forced_min:
        raise Mismatch(f"q={q}: table meet {meet_order} below forced {forced_min}")
    last = None
    for attempt in range(max_attempts):
        A = _build_labeled_subgroup(T, a_label, a_order, seed + attempt)
        B = _build_labeled_subgroup(T, b_label, b_order, seed + 10007 * (attempt + 1))
        meet = intersection_small(A.group, B.group)
        last = meet.order()
        if last == meet_order:
            return FactorizationRecord(
                q,
                a_label,
                a_order,
                b_label,
                b_order,
                meet_order,
                anchor,
                verified=True,
                attempts=attempt + 1,
            )
    raise ConstructionFailed(
        f"q={q}: no ({a_label},{b_label}) pair met in order {meet_order} "
        f"after {max_attempts} attempts (last {last})"
    )


# ---------------------------------------------------------------------------
# table data


def load_factorization_table(path):
    """Rows of `q | A-label | A-order | B-label | B-order | meet | anchor`."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 7:
                raise ParseError("expected 7 fields", line=lineno)
            try:
                q = int(parts[0])
                a_order = int(parts[2])
                b_order = int(parts[4])
                meet = int(parts[5])
            except ValueError:
                raise ParseError("bad integer field", line=lineno)
            rows.append((q, (parts[1], a_order, parts[3], b_order, meet, parts[6])))
    return rows


def parabolic_order(q):
    """Order of a point stabilizer of PSL(2,q) on the projective line."""
    return q * (q - 1) // (2 if q % 2 else 1)


def load_examples_table(path):
    """Rows of `example-id | q-condition | label | order-rule | anchor`."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 5:
                raise ParseError("expected 5 fields", line=lineno)
            rows.append(tuple(parts))
    return rows


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _condition_holds(cond, q):
    if cond == "any":
        return True
    if cond.startswith("prime+-1mod"):
        m = int(cond[len("prime+-1mod"):])
        return _is_prime(q) and (q % m == 1 or q % m == m - 1)
    raise ParseError(f"unknown q-condition {cond}")


def cross_check_examples(example_rows, factorization_rows):
    """Static consistency pass: no known-example stabilizer projection
    shares its order with a table intersection at an admissible q.

    Pure table arithmetic; returns (ok, list of collision dicts).
    """
    collisions = []
    for q, (a_label, a_order, b_label, b_order, meet, anchor) in factorization_rows:
        for ex_id, cond, label, order_rule, ex_anchor in example_rows:
            if not _condition_holds(cond, q):
                continue
            order = parabolic_order(q) if order_rule == "parabolic" else int(order_rule)
            if order == meet:
                collisions.append(
                    {
                        "example": ex_id,
                        "q": q,
                        "order": order,
                        "row": (a_label, b_label, meet),
                    }
                )
    return not collisions, collisions
