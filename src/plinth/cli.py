"""Command-line verification suite.

Runs the case pipelines end to end and emits structured certificates;
each check carries its source anchor.  Every randomized search draws
from one fixed stream, so a case's checks are the same at every seed:
the seed only labels the certificate, in its ``seed`` field and its
determinism hash (timings and errors are excluded from the hash).

A case is an ordered table of checks, each read from the run's shared
stages by one runner (``_run_table``).  Every stage (the W(q) pipeline, read
at q = 2 and q = 4, and the facts the checks read) is computed once per
``--data`` path and process; ``timings_ms`` holds the own time of each
stage a run builds, less the stages nested in it, and "cached" for each
one it reuses.  An exception inside a case ends it with status ERROR,
an ``error`` entry naming the stage and exception type, and exit code 3.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .actions import (
    PRODUCT_DEGREE_CAP,
    coset_action,
    order_over,
    ovoid_spread_action,
    product_action_wreath,
    top_projection,
)
from .algebra import (
    extend_to_lines,
    gq_automorphism_group,
    identify_extension_flavor,
    psl2_action,
    sp4,
    symplectic_gq,
)
from .autgq import ColoredGraph, graph_automorphism_group, incidence_graph
from .cartesian import (
    classify_inclusion,
    blowup_embedding,
    cross_check_examples,
    dihedral_subgroup,
    find_grid_decompositions,
    index2_subgroups,
    load_examples_table,
    load_factorization_table,
    verify_psl2_factorization_row,
)
from .errors import (
    ConstructionFailed,
    IoError,
    NotBijection,
    ParseError,
    PlinthError,
    Unrecognized,
)
from .graphs import (
    Graph,
    direct_power,
    orbital_graph,
    s_arc_transitivity_max,
    suborbits,
    two_arc_transitive,
)
from .perm import (
    _DTYPE,
    PermGroup,
    Permutation,
    _suborbit_blocks,
    derived_subgroup,
    element_of_order,
    is_k_transitive,
    point_stabilizer,
    random_subgroup_of_order,
    small_generating_set,
    stabilizer_orbit_sizes,
)
from .textio import parse_int, read_lines

SCHEMA_VERSION = 1

FLAVORS = ("PSL", "PGL", "PSigmaL", "M10", "PGammaL")


def data_path(name):
    """Path of a packaged data file."""
    return os.path.join(os.path.dirname(__file__), "data", name)


# ---------------------------------------------------------------------------
# generator files


def _parse_cycle_notation(text, degree, lineno):
    """One permutation from 1-based disjoint-cycle notation."""
    images = np.arange(degree, dtype=_DTYPE)
    body = text.strip()
    if body == "()":
        return Permutation(images, _checked=True)
    if not body.startswith("(") or not body.endswith(")"):
        raise ParseError("cycles must be parenthesized", line=lineno)
    seen = set()
    for chunk in body[1:-1].split(")("):
        bad = f"bad cycle {chunk!r}"
        points = [parse_int(tok, bad, lineno) - 1 for tok in chunk.split(",")]
        if len(points) < 2:
            raise ParseError("cycles need at least two points", line=lineno)
        for p in points:
            if p < 0 or p >= degree:
                raise ParseError(f"point {p + 1} out of range", line=lineno)
            if p in seen:
                raise NotBijection(f"point {p + 1} repeated on line {lineno}")
            seen.add(p)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return Permutation(images, _checked=True)


def _parse_image_notation(text, degree, lineno):
    """One permutation from a 1-based image list like [2,1,3]."""
    body = text.strip()
    if not body.startswith("[") or not body.endswith("]"):
        raise ParseError("image list must be bracketed", line=lineno)
    tokens = body[1:-1].split(",")
    images = [parse_int(tok, "bad image list", lineno) - 1 for tok in tokens]
    if len(images) != degree:
        raise ParseError("image list length != degree", line=lineno)
    for p in images:
        if p < 0 or p >= degree:
            raise ParseError(f"image {p + 1} out of range", line=lineno)
    if sorted(images) != list(range(degree)):
        raise NotBijection(f"image list on line {lineno} is not a bijection")
    return Permutation(np.array(images, dtype=_DTYPE), _checked=True)


def parse_generators(path):
    """The group of a generator file: one ``degree N`` line, then its
    ``gen`` lines, in cycle or image notation (see README)."""
    degree = None
    generators = []
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("degree "):
            if degree is not None:
                raise ParseError("repeated degree line", line=lineno)
            fields = line.split()  # nothing may follow the count
            token = fields[1] if len(fields) == 2 else ""
            degree = parse_int(token, "bad degree line", lineno)
            if degree < 1:
                raise ParseError("degree must be positive", line=lineno)
            if degree > PRODUCT_DEGREE_CAP:
                raise ParseError(
                    f"degree exceeds cap {PRODUCT_DEGREE_CAP}", line=lineno
                )
        elif line.startswith("gen "):
            if degree is None:
                raise ParseError("gen before degree", line=lineno)
            body = line[4:].strip()
            if body.startswith("["):
                generators.append(_parse_image_notation(body, degree, lineno))
            else:
                generators.append(_parse_cycle_notation(body, degree, lineno))
        else:
            raise ParseError(f"unrecognized line {line!r}", line=lineno)
    if degree is None:
        raise ParseError("missing degree line", line=1)
    return PermGroup(generators, degree=degree)


# ---------------------------------------------------------------------------
# reports


@dataclass
class VerificationReport:
    """Structured certificate of one verification case."""

    case: str
    seed: int
    checks: list = field(default_factory=list)
    timings_ms: dict = field(default_factory=dict)
    skipped: bool = False
    error: dict = None  # stage, type and message of what ended the case

    def add(self, name, expected, actual, anchor):
        entry = {
            "name": name,
            "expected": expected,
            "actual": actual,
            "pass": expected == actual,
            "anchor": anchor,
        }
        self.checks.append(entry)
        return entry["pass"]

    @property
    def status(self):
        if self.error:
            return "ERROR"
        if self.skipped and not self.checks:
            return "SKIP"
        return "PASS" if all(c["pass"] for c in self.checks) else "FAIL"

    def _hashed(self):
        """What the determinism hash covers."""
        return {
            "schema": SCHEMA_VERSION,
            "case": self.case,
            "status": self.status,
            "seed": self.seed,
            "checks": self.checks,
        }

    def determinism_hash(self):
        blob = json.dumps(self._hashed(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_json_dict(self):
        out = self._hashed()
        out.update(hash=self.determinism_hash(), timings_ms=self.timings_ms)
        if self.error:
            out["error"] = self.error
        return out

    def exit_code(self):
        return {"PASS": 0, "FAIL": 1, "SKIP": 2, "ERROR": 3}[self.status]


def emit_report(report, fmt="text", path=None):
    """Serialize a report as text or JSON, to a path or stdout."""
    if fmt == "json":
        payload = json.dumps(report.to_json_dict(), indent=2) + "\n"
    else:
        lines = [
            f"case: {report.case}",
            f"status: {report.status}",
            f"seed: {report.seed}",
            f"hash: {report.determinism_hash()}",
            "checks:",
        ]
        for c in report.checks:
            mark = "ok " if c["pass"] else "FAIL"
            lines.append(f"  [{mark}] {c['name']}")
            lines.append(f"         expected: {c['expected']}")
            lines.append(f"         actual:   {c['actual']}")
            lines.append(f"         anchor:   {c['anchor']}")
        if not report.checks:
            lines.append("  (none)")
        lines.append(
            "timings_ms: "
            + ", ".join(f"{k}={v}" for k, v in report.timings_ms.items())
        )
        if report.error:
            lines.append("error: {type} in stage {stage}".format(**report.error))
        payload = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(payload)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise IoError(str(exc))


# ---------------------------------------------------------------------------
# runs and stages

# (stage function, q, --data path) -> value of every shared stage built
# in this process
_SHARED = {}


def _stage_name(build, q=None):
    """A stage's name: its builder's less the leading underscore, and
    ``w{q}_<job>`` for the W(q) builder ``_w_<job>``."""
    name = build.__name__.lstrip("_")
    return name if q is None else f"w{q}{name[1:]}"


class _Run:
    """One run of a case: its report, and the shared stages it reads.

    ``run.shared(build)`` is ``build(run)``, and ``run.shared(build, q)``
    is the W(q) stage ``build(run, q)``: a stage named by ``_stage_name``,
    computed once per ``--data`` path and process.  A run that builds it
    adds the build's own time, less the stages nested in it, to
    ``timings_ms[name]``; a run that reuses it records "cached" for it.
    """

    def __init__(self, case, seed, data=None):
        self.report = VerificationReport(case, seed)
        self.data = data
        self._nested = []  # per stage being built: time of the stages nested in it
        self.raised = (None, None)  # an exception and the first stage it left

    def shared(self, build, q=None):
        key = (build, q, self.data)
        name = _stage_name(build, q)
        timings = self.report.timings_ms
        if key in _SHARED:
            timings.setdefault(name, "cached")
            return _SHARED[key]
        self._nested.append(0.0)
        start = time.perf_counter()
        try:
            _SHARED[key] = build(self) if q is None else build(self, q)
        except BaseException as exc:
            if self.raised[0] is not exc:
                self.raised = (exc, name)
            raise
        finally:
            elapsed = time.perf_counter() - start
            nested = self._nested.pop()
            if self._nested:
                self._nested[-1] += elapsed
            timings[name] = round((elapsed - nested) * 1e3, 1)
        return _SHARED[key]


# the records of the stages that find more than one fact
_Grids = namedtuple("_Grids", "grids verdicts")
_Automorphisms = namedtuple("_Automorphisms", "aut_order socle_order sp4_in_socle")
_Neighborhood = namedtuple("_Neighborhood", "connected regular meet_order")
_Stabilizer = namedtuple("_Stabilizer", "order dihedral")
_SuborbitScan = namedtuple("_SuborbitScan", "lengths_sum scan")
_O8plus2 = namedtuple("_O8plus2", "group subgroup inside")
_Psl2Tables = namedtuple("_Psl2Tables", "rows groups examples_ok")
_Square = namedtuple("_Square", "aut_order transitive s_max law")
_A5wr2 = namedtuple("_A5wr2", "group factors verdict")


# ---------------------------------------------------------------------------
# the W(q) pipeline, each stage a function of q: Aut W(q) and its socle on
# the N x N ovoid-spread pairs of W(q), N = q^2(q^2-1)/2, proved to be
# their actions on the class of a cyclic subgroup Z of order q^2+1 of the
# socle.  sylvester and classify-a6 read q = 2, where Aut W(2) is
# PGammaL(2,9), its socle Sp(4,2)' is A6 and the pairs are Sylvester's
# double six; sp44 and classify-sp44 read q = 4.


def _w_geometry(run, q):
    return symplectic_gq(q)


def _w_sp4_image(run, q):
    """Sp(4,q) from symplectic transvections, on the points and lines of
    W(q)."""
    geom = run.shared(_w_geometry, q)
    ma = sp4(q)
    gens = extend_to_lines(geom, ma.group.generators)
    # an image of Sp(4,q), a group of known order
    return PermGroup._bounded(gens, geom.num_points + geom.num_lines, ma.group.order())


def _w_aut(run, q):
    """Aut W(q), built from Sp(4,q), the Frobenius and the Klein duality,
    its order counted by index over the Sp(4,q) image, and certified by
    the automorphism search seeded with that group."""
    geom = run.shared(_w_geometry, q)
    image = run.shared(_w_sp4_image, q)
    known = order_over(image, gq_automorphism_group(geom, image.generators).generators)
    return graph_automorphism_group(incidence_graph(geom), known=known)


def _w_aut_gens(run, q):
    """A small generating set of Aut W(q)."""
    return small_generating_set(run.shared(_w_aut, q))


def _w_socle(run, q):
    """The socle as the derived subgroup of Aut W(q), and a small
    generating set of it."""
    socle = derived_subgroup(run.shared(_w_aut_gens, q))
    return socle, small_generating_set(socle)


def _w_class_action(run, q):
    """Aut W(q) and its socle on the ovoid-spread pairs of W(q), proved to
    be their actions on the class of a subgroup Z of order q^2+1."""
    socle_small = run.shared(_w_socle, q)[1]
    z = element_of_order(socle_small, q * q + 1)
    if z is None:
        raise ConstructionFailed(f"no element of order {q * q + 1} found")
    return ovoid_spread_action(
        run.shared(_w_geometry, q), run.shared(_w_aut_gens, q), socle_small, z
    )


def _w_suborbits(run, q):
    return suborbits(run.shared(_w_class_action, q).group)


def _w_suborbit_scan(run, q):
    """The scanned self-paired suborbits of the pair action."""
    return _scan_suborbits(run.shared(_w_suborbits, q))


def _w_grid(run, q):
    """Grids of the pair action's group found through its plinth, the
    socle's action, with their inclusion verdicts."""
    act = run.shared(_w_class_action, q)
    G, M = act.group, act.socle_group
    grids = find_grid_decompositions(G, M, run.shared(_w_suborbits, q).frame())
    return _Grids(grids, [classify_inclusion(G, M, E) for E in grids])


def _w_stabilizer(run, q):
    """The order of the plinth's point stabilizer, and whether it has a
    witnessed dihedral subgroup of order 2(q^2+1)."""
    stab = point_stabilizer(run.shared(_w_class_action, q).socle_group, 0)
    witness = dihedral_subgroup(stab, 2 * (q * q + 1))
    return _Stabilizer(stab.order(), witness is not None)


# ---------------------------------------------------------------------------
# shared stages of the cases: the facts their checks read


def _a6_flavours(run):
    """The five A6 flavours on the 10 points of PG(1,9)."""
    return {f: psl2_action(9, f) for f in FLAVORS}


def _a6_flavour_names(run):
    """Each A6 flavour's name as ``identify_extension_flavor`` finds it."""
    groups = run.shared(_a6_flavours)
    return {f: identify_extension_flavor(groups[f]) for f in FLAVORS}


def _a6_flavour_groups(run):
    """Each flavour as a subgroup of Aut W(2) = PGammaL(2,9) on the double
    six: PSL is the socle A6, PGammaL the whole group, and the three
    index-2 subgroups over the socle are named by one exact rule.  A6 has
    no element of order 6 or 10, so an element of order 10 lies in exactly
    one of them, PGL(2,9), an element of order 6 only in PSigmaL(2,9) =
    S6, and M10 is the third."""
    act = run.shared(_w_class_action, 2)
    G, M = act.group, act.socle_group
    witnesses = [(f, element_of_order(G, m)) for f, m in (("PGL", 10), ("PSigmaL", 6))]
    halves = index2_subgroups(G, M)
    names = [
        next((f for f, g in witnesses if g is not None and K.contains(g)), "M10")
        for K in halves
    ]
    if sorted(names) != ["M10", "PGL", "PSigmaL"]:
        raise ConstructionFailed(f"index-2 subgroups over A6 named {names}")
    return {"PSL": M, **dict(zip(names, halves)), "PGammaL": G}


def _a6_valency5(run):
    """The scanned self-paired suborbits of length q^2+1 = 5 of W(2)."""
    return [r for r in run.shared(_w_suborbit_scan, 2) if r["length"] == 5]


def _a6_orbital_graph(run):
    """The orbital graph of the first of those suborbits."""
    hit = _a6_valency5(run)[0]
    G = run.shared(_w_class_action, 2).group
    return orbital_graph(G, hit["representative"], run.shared(_w_suborbits, 2))


def _a6_two_arc(run):
    """Per flavour, whether it is 2-arc-transitive on that orbital
    graph."""
    graph = run.shared(_a6_orbital_graph)
    groups = run.shared(_a6_flavour_groups)
    return {f: two_arc_transitive(groups[f], graph) for f in FLAVORS}


def _w4_automorphisms(run):
    """The orders of Aut W(4) and of its socle, and whether the Sp(4,4)
    image lies in the socle and has the socle's order.  The image lies
    in Aut W(4) by construction, its generators being among Aut's; that
    it lies in the socle, with the socle's order, is computed."""
    aut = run.shared(_w_aut, 4)
    socle = run.shared(_w_socle, 4)[0]
    image = run.shared(_w_sp4_image, 4)
    inside = all(socle.contains(g) for g in image.generators)
    return _Automorphisms(
        aut.order(), socle.order(), inside and image.order() == socle.order()
    )


def _w4_neighborhood(run):
    """For the first scanned suborbit of length 17, N(0) of its orbital
    graph: whether the graph is connected, whether z, the image of point
    0's Z generator, is regular on N(0), and the order of the meet of <z>
    with its conjugate by the frame's transporter u from 0 to the
    suborbit's representative, which generates that point's Z."""
    act = run.shared(_w_class_action, 4)
    od = run.shared(_w_suborbits, 4)
    hit = next(r for r in run.shared(_w_suborbit_scan, 4) if r["length"] == 17)
    idx = int(od.labels[hit["representative"]])
    z = act.z
    # |Z| = q^2 + 1 = 17, a prime
    regular = _regular_on_neighborhood(z, od.points_of(idx).tolist(), 17)
    u = od.transporters[idx].map(np.arange(z.degree))
    meet = _conjugate_meet_order(z, Permutation(u, _checked=True), 17)
    return _Neighborhood(hit["connected"], regular, meet)


def _w4_top_projection(run):
    """Whether the W(4) class action's group permutes the two partitions
    of its first grid as a transitive group of order 2."""
    E = run.shared(_w_grid, 4).grids[0]
    top = top_projection(run.shared(_w_class_action, 4).group, E)
    return top.is_transitive() and top.order() == 2


def _m12_group(run):
    """The group of m12's generator file, ``--data`` or the packaged one,
    with its chain built."""
    G = parse_generators(run.data or data_path("m12.gens"))
    G.order()
    return G


def _m12_orbit_sizes(run):
    """Orbit sizes along the m12 group's first five point stabilizers."""
    return stabilizer_orbit_sizes(run.shared(_m12_group), 5)


def _m12_subgroup(run):
    """A subgroup of order 660 of the m12 group, from a randomized search
    steered by the element orders (11, 2), or None when it finds none."""
    return random_subgroup_of_order(run.shared(_m12_group), 660, profile=(11, 2))


def _m12_coset_action(run):
    """The m12 group on the cosets of that subgroup, with its chain built."""
    M = coset_action(run.shared(_m12_group), run.shared(_m12_subgroup)).group
    M.order()
    return M


def _m12_suborbit_scan(run):
    """The sum of the coset action's suborbit lengths, and its scanned
    self-paired suborbits."""
    od = suborbits(run.shared(_m12_coset_action))
    return _SuborbitScan(sum(od.lengths()), _scan_suborbits(od))


def _o8plus2_files(data):
    """The group and subgroup generator files of o8plus2 under ``data``."""
    return [os.path.join(data, name) for name in ("o8plus2.gens", "g2_2.gens")]


def _o8plus2_present(data):
    """Whether ``data`` holds both o8plus2 generator files."""
    return bool(data) and all(map(os.path.exists, _o8plus2_files(data)))


def _o8plus2_parse(run):
    """The o8plus2 group and subgroup of the ``--data`` directory, and
    whether every subgroup generator lies in the group; the group's chain
    is built, and the subgroup's when they do."""
    G, H = (parse_generators(path) for path in _o8plus2_files(run.data))
    G.order()
    inside = H.degree == G.degree and all(G.contains(g) for g in H.generators)
    if inside:
        H.order()
    return _O8plus2(G, H, inside)


def _o8plus2_coset_action(run):
    """The o8plus2 group on the cosets of its subgroup."""
    G, H, _ = run.shared(_o8plus2_parse)
    return coset_action(G, H).group


def _o8plus2_suborbits(run):
    """The suborbit lengths of that coset action."""
    return suborbits(run.shared(_o8plus2_coset_action)).lengths()


def _psl2_tables(run):
    """The factorization table's rows, PSL(2,q) with its chain for each q
    in it, and whether the examples table cross-checks against it."""
    rows = load_factorization_table(data_path("psl2_factorizations.txt"))
    groups = {}
    for q, _ in rows:
        if q not in groups:
            groups[q] = psl2_action(q)
            groups[q].order()
    examples = load_examples_table(data_path("liseress_examples.txt"))
    return _Psl2Tables(rows, groups, cross_check_examples(examples, rows)[0])


def _psl2_row_meets(run):
    """Per factorization row, the order in which its A and B meet, or
    the error that ended its check."""
    rows, groups, _ = run.shared(_psl2_tables)
    meets = []
    for q, row in rows:
        try:
            meets.append(verify_psl2_factorization_row(groups[q], row))
        except PlinthError as exc:
            meets.append(f"error: {exc}")
    return meets


def _product_squares(run):
    """Per base graph of Proposition 3.5, K4 and the Petersen graph: the
    order of its automorphism group, and of its square under Aut wr S2 in
    product action whether the group is vertex-transitive, the largest
    s <= 2 for which it is s-arc-transitive (0 when it is not
    vertex-transitive), and whether the neighborhood product law holds at
    a diagonal vertex."""
    k4 = Graph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    out = {}
    for name, graph in (("K4", k4), ("Petersen", _petersen())):
        aut = graph_automorphism_group(ColoredGraph(graph))
        square = direct_power(graph, 2)
        wreath = product_action_wreath(aut, 2, PermGroup.symmetric(2))
        W = wreath.group
        transitive = W.is_transitive()
        s_max = s_arc_transitivity_max(W, square, s_cap=2) if transitive else 0
        v = 0
        diag = wreath.encode((v, v))
        got = {int(u) for u in square.neighbors(diag)}
        want = {
            wreath.encode((int(a), int(b)))
            for a in graph.neighbors(v)
            for b in graph.neighbors(v)
        }
        out[name] = _Square(aut.order(), transitive, s_max, got == want)
    return out


def _a5wr2(run):
    """A5 wr S2 in product action, its two coordinate copies of A5, and
    the verdict on its inclusion with plinth A5 x A5."""
    A5 = PermGroup.alternating(5)
    wreath = product_action_wreath(A5, 2, PermGroup.symmetric(2))
    W = wreath.group
    n = W.degree
    # the first 2 * k generators are the coordinatewise copies of A5's
    k = len(A5.generators)
    factors = [
        PermGroup(W.generators[j * k:(j + 1) * k], degree=n) for j in range(2)
    ]
    M2 = PermGroup(W.generators[:2 * k], degree=n)
    verdict = classify_inclusion(W, M2, wreath.decomposition, factors=factors)
    return _A5wr2(W, factors, verdict)


def _a5wr2_blowup(run):
    """The blow-up certificate of A5 wr S2 along its coordinate copies."""
    W, factors, _ = run.shared(_a5wr2)
    return blowup_embedding(W, factors)


def _scan_suborbits(od):
    """Per nontrivial self-paired suborbit of ``od = suborbits(G)``: its
    representative, length, and whether its orbital graph is connected
    (the block <G_0, u> . 0, u the transporter 0 -> representative, is
    the whole point set) and (G, 2)-arc-transitive (G_0 is 2-transitive
    on the suborbit, which is N(0)).

    2-transitivity on a suborbit of length m is first tested by
    Lagrange, exactly: if G_0 is 2-transitive there, the group it
    induces has order divisible by m(m-1), the number of ordered pairs
    of distinct points, and that order divides |G_0|.  So when m(m-1)
    does not divide |G_0| the answer is no without building the induced
    action."""
    stab = od.stabilizer
    paired = [i for i, s in enumerate(od.suborbits) if i and s.self_paired]
    blocks = _suborbit_blocks(od.labels, [od.transporters[i] for i in paired])
    results = []
    for idx, block in zip(paired, blocks):
        s = od.suborbits[idx]
        m = s.length
        results.append(
            {
                "representative": s.representative,
                "length": m,
                "connected": block is None,
                "two_at": m >= 2
                and stab.order() % (m * (m - 1)) == 0
                and is_k_transitive(stab, od.points_of(idx).tolist(), 2),
            }
        )
    return results


def _conjugate_meet_order(z, u, p):
    """The order of the meet of <z> with <z^u>, for z of prime order p.

    Both groups have order p, so their meet has order p when z^u is a
    power of z and 1 otherwise.  A power z^k equals z^u only if z^u(x)
    is z^k(x), k steps along the p-cycle of a point x that z moves, so
    one k is compared.
    """
    c = z.conjugate(u)
    x = int(np.flatnonzero(z.images != np.arange(z.degree))[0])
    target, y = c(x), x
    for k in range(p):
        if y == target:
            return p if c == z**k else 1
        y = z(y)
    return 1


def _regular_on_neighborhood(z, nbrs, p):
    """Whether <z> fixes point 0 and is regular on the points nbrs.

    z has prime order p, or is the identity, and a group of order p that
    keeps a set of p points and moves one of them is regular on it.
    Only the images of 0 and nbrs are read.
    """
    images = z.images[[0] + nbrs].tolist()
    return (
        len(nbrs) == p
        and images[0] == 0
        and sorted(images[1:]) == sorted(nbrs)
        and images[1:] != nbrs
    )


def _petersen():
    """Petersen graph with its vertex group: S5 on 2-subsets."""
    from itertools import combinations

    pairs = list(combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    gens = []
    for g in PermGroup.symmetric(5).generators:
        images = np.empty(10, dtype=_DTYPE)
        for i, (a, b) in enumerate(pairs):
            images[i] = index[tuple(sorted((int(g.images[a]), int(g.images[b]))))]
        gens.append(Permutation(images, _checked=True))
    K = PermGroup(gens, degree=10)
    # the pair {0, 1} is point 0; its disjoint pairs are its neighbours
    return orbital_graph(K, index[(2, 3)], suborbits(K))


# ---------------------------------------------------------------------------
# cases: the paper's claims the checks quote, each named once, and one
# table of checks per case, walked by one runner

ANCHOR_AUT_A6 = 'Theorem 4.1 proof, "is Aut A6 = PGammaL(2,9)"'
ANCHOR_FLAVOR = ('Theorem 1.1(1)(a), "|Aut A6 : G| in {1,2}, G != PGL(2,9)" '
                 "(computed truth reported per flavor)")
ANCHOR_IFF_S6 = 'Theorem 4.1 proof, "if and only if S6 <= G"'
ANCHOR_OMEGA_36 = 'Theorem 1.1(1), "|Omega| = 6^2"'
ANCHOR_SYLVESTER = 'Theorem 4.1(1), "Sylvester\'s Double Six Graph of valency 5"'
ANCHOR_CONNECTED = 'Section 1, "undirected, simple, and connected"'
ANCHOR_PRODUCT_ACTION = 'Abstract, "acting in product action on"'
ANCHOR_W4 = ('Section 1, "the generalized quadrangle associated with the '
             'non-degenerate alternating bilinear form"')
ANCHOR_AUT_SP4 = 'Theorem 4.1 proof, "Aut T = Sp4(q).Ca.C2"'
ANCHOR_SP4 = 'Theorem 4.1(2), "T = Sp4(q) with q = 2^a and a >= 2"'
ANCHOR_VERTICES = 'Theorem 4.1(2), "|ver Gamma| = 14,400 = 120^2"'
ANCHOR_VALENCY_17 = 'Theorem 4.1(2), "a graph of valency 17"'
ANCHOR_Z = 'Theorem 4.1 proof, "a subgroup of order q^2+1"'
ANCHOR_Z_MEET = 'Theorem 4.1 proof, "Z meet Z^x = 1 as claimed"'
ANCHOR_OMEGA_120 = 'Theorem 1.1(2), "|Omega| = 120^2"'
ANCHOR_M12 = 'Theorem 4.1 proof, "T = M12 and |Omega| = 144"'
ANCHOR_NO_M12_GRAPH = 'Theorem 4.1 proof, "no graph arises in this case"'
ANCHOR_M12_2 = (ANCHOR_NO_M12_GRAPH
                + " (whether the check covers M12.2 is undetermined by the text)")
ANCHOR_O8PLUS2 = 'Theorem 4.1 proof, "has no suborbit of size 28"'
ANCHOR_EXAMPLES = 'Corollary 6.4, "Comparing the possibilities in Tables"'
ANCHOR_DELTA = 'Proposition 3.5, "whose vertex set is Delta"'
ANCHOR_NOT_2_ARC = 'Proposition 3.5, "is not (G,2)-arc-transitive"'
ANCHOR_G_ALPHA = 'Proposition 3.5, "Hence G_alpha is not 2-transitive"'
ANCHOR_NEIGHBORHOOD = 'Section 3 remark, "the neighborhood (Gamma_1)^l(alpha)"'
ANCHOR_CD2 = 'Section 2.5, "transitive must have type" CD2~'
ANCHOR_S_AT_MOST_3 = 'Theorem 2.8, "The number s of components"'
ANCHOR_A5_COMPONENTS = "Theorem 4.1 case T = A6 (components with point stabilizer A5)"
ANCHOR_A6_STABILIZER = 'Table 1, "Table for Theorem" (A6 row: dihedral stabilizer)'
ANCHOR_A5WR2 = "Lemma 2.2 context (plinth in base group, one component per factor)"
ANCHOR_PRODUCT_FORMULA = "Proposition 2.5 product formula"
ANCHOR_BLOWUP = 'Theorem 2.6, "Let Xi be the right coset space"'
ANCHOR_W4_PROJECTIONS = "Theorem 1.1(1) context (projections of order 979,200/120)"
ANCHOR_TOP = "Theorem 1.1(2) context (G pi transitive on the two partitions)"
ANCHOR_W4_STABILIZER = ANCHOR_Z + " (stabilizer Z<sigma> of order 4(q^2+1))"
ANCHOR_D34 = 'Table 1, "Table for Theorem" column 2 (X = D_(2^a+1), Y = X.2)'


# a row of a case's table: a check's name, expected value and anchor, the
# reader of its actual value, and whether its failure ends the case
_Check = namedtuple("_Check", "name expected anchor read stop", defaults=(False,))


def _run_table(run, table):
    """Add a table's checks to the run's report, each read just before it
    is added; a failed ``stop`` row ends the case.  An entry is a row, or
    a function of the run that gives a group of rows read from a stage."""
    for entry in table:
        for row in (entry,) if isinstance(entry, _Check) else entry(run):
            passed = run.report.add(row.name, row.expected, row.read(run), row.anchor)
            if row.stop and not passed:
                return


def _graph_valencies(scan):
    """The valencies of a scan's connected 2-arc-transitive graphs."""
    return [r["length"] for r in scan if r["connected"] and r["two_at"]]


def _if_grid(q):
    """The inclusion type of W(q)'s first grid, a row made only if one
    exists."""
    row = _Check("inclusion_type", "CD2Sim", ANCHOR_CD2,
                 lambda run: run.shared(_w_grid, q).verdicts[0].tag)
    return lambda run: (row,) if run.shared(_w_grid, q).grids else ()


def _grid_rows(q, blocks, grid_anchor, projection, projection_anchor):
    """The rows classify-a6 and classify-sp44 read from W(q)'s grid
    stage."""
    return (
        _Check("grid_count", 1, grid_anchor,
               lambda run: len(run.shared(_w_grid, q).grids), stop=True),
        _Check("block_counts", [blocks] * 2, grid_anchor,
               lambda run: run.shared(_w_grid, q).grids[0].block_counts),
        _if_grid(q),
        _Check("projection_orders", [projection] * 2, projection_anchor,
               lambda run: list(run.shared(_w_grid, q).verdicts[0].projection_orders)),
        _Check("s_at_most_3", True, ANCHOR_S_AT_MOST_3,
               lambda run: run.shared(_w_grid, q).verdicts[0].s <= 3),
    )


_CASES = {}  # case -> its table
_CASES["sylvester"] = (
    # per flavour, its order and whether it is 2-arc-transitive on the graph
    *(
        row
        for f, order in zip(FLAVORS, (360, 720, 720, 720, 1440))
        for row in (
            _Check(f"order_{f}", order, ANCHOR_AUT_A6,
                   lambda run, f=f: run.shared(_a6_flavours)[f].order()),
            _Check(f"flavor_identified_{f}", f, ANCHOR_FLAVOR,
                   lambda run, f=f: run.shared(_a6_flavour_names)[f]),
        )
    ),
    _Check("class_action_degree", 36, ANCHOR_OMEGA_36,
           lambda run: run.shared(_w_class_action, 2).group.degree),
    _Check("self_paired_length5_suborbits", 1, ANCHOR_SYLVESTER,
           lambda run: len(_a6_valency5(run)), stop=True),
    _Check("vertices", 36, ANCHOR_SYLVESTER,
           lambda run: run.shared(_a6_orbital_graph).n),
    _Check("valency", 5, ANCHOR_SYLVESTER,
           lambda run: run.shared(_a6_orbital_graph).valency()),
    _Check("connected", True, ANCHOR_CONNECTED,
           lambda run: _a6_valency5(run)[0]["connected"]),
    *(
        _Check(f"two_arc_transitive_{f}", two_arc,
               ANCHOR_IFF_S6 if f in ("PSL", "PSigmaL") else ANCHOR_FLAVOR,
               lambda run, f=f: run.shared(_a6_two_arc)[f])
        for f, two_arc in zip(FLAVORS, (False, False, True, True, True))
    ),
    _Check("grid_count", 1, ANCHOR_PRODUCT_ACTION,
           lambda run: len(run.shared(_w_grid, 2).grids)),
    _if_grid(2),
)

_CASES["sp44"] = (
    _Check("gq_points", 85, ANCHOR_W4,
           lambda run: run.shared(_w_geometry, 4).num_points),
    _Check("gq_lines_per_point", [5] * 85, ANCHOR_W4,
           lambda run: [len(ls) for ls in run.shared(_w_geometry, 4).point_lines]),
    _Check("aut_order", 3916800, ANCHOR_AUT_SP4,
           lambda run: run.shared(_w4_automorphisms).aut_order),
    _Check("socle_order", 979200, ANCHOR_SP4,
           lambda run: run.shared(_w4_automorphisms).socle_order),
    _Check("sp4_image_in_socle", True, ANCHOR_AUT_SP4,
           lambda run: run.shared(_w4_automorphisms).sp4_in_socle),
    _Check("class_action_degree", 14400, ANCHOR_VERTICES,
           lambda run: run.shared(_w_class_action, 4).group.degree),
    _Check("graph_yielding_suborbits", 1, ANCHOR_VALENCY_17,
           lambda run: len(_graph_valencies(run.shared(_w_suborbit_scan, 4)))),
    _Check("winning_valency", [17], ANCHOR_VALENCY_17,
           lambda run: _graph_valencies(run.shared(_w_suborbit_scan, 4)), stop=True),
    _Check("connected", True, ANCHOR_CONNECTED,
           lambda run: run.shared(_w4_neighborhood).connected),
    _Check("Z_regular_on_neighborhood", True, ANCHOR_Z,
           lambda run: run.shared(_w4_neighborhood).regular),
    _Check("Z_meet_conjugate_trivial", 1, ANCHOR_Z_MEET,
           lambda run: run.shared(_w4_neighborhood).meet_order),
    _Check("grid_count", 1, ANCHOR_OMEGA_120,
           lambda run: len(run.shared(_w_grid, 4).grids)),
    _if_grid(4),
)


def _m12_subgroup_order(run):
    H = run.shared(_m12_subgroup)
    return H.order() if H else None


_CASES["m12"] = (
    _Check("degree", 12, ANCHOR_M12,
           lambda run: run.shared(_m12_group).degree, stop=True),
    _Check("order", 95040, ANCHOR_M12, lambda run: run.shared(_m12_group).order()),
    # sharp 5-transitivity: iterated stabilizer orbit sizes 12..8
    _Check("five_transitive_orbit_sizes", [12, 11, 10, 9, 8], ANCHOR_M12,
           lambda run: run.shared(_m12_orbit_sizes)),
    _Check("subgroup_order", 660, ANCHOR_M12, _m12_subgroup_order, stop=True),
    _Check("coset_degree", 144, ANCHOR_M12,
           lambda run: run.shared(_m12_coset_action).degree),
    _Check("faithful", 95040, ANCHOR_M12,
           lambda run: run.shared(_m12_coset_action).order()),
    _Check("suborbit_lengths_sum", 144, ANCHOR_NO_M12_GRAPH,
           lambda run: run.shared(_m12_suborbit_scan).lengths_sum),
    _Check("graph_yielding_suborbits", 0, ANCHOR_NO_M12_GRAPH,
           lambda run: len(_graph_valencies(run.shared(_m12_suborbit_scan).scan))),
    # a claim recorded but not evaluated: it always passes
    _Check("m12_2_extension", "unevaluated", ANCHOR_M12_2, lambda run: "unevaluated"),
)

_CASES["o8plus2"] = (
    _Check("group_order", 174182400, ANCHOR_O8PLUS2,
           lambda run: run.shared(_o8plus2_parse).group.order()),
    _Check("subgroup_contained", True, ANCHOR_O8PLUS2,
           lambda run: run.shared(_o8plus2_parse).inside, stop=True),
    _Check("subgroup_order", 12096, ANCHOR_O8PLUS2,
           lambda run: run.shared(_o8plus2_parse).subgroup.order()),
    _Check("coset_degree", 14400, ANCHOR_O8PLUS2,
           lambda run: run.shared(_o8plus2_coset_action).degree),
    _Check("no_suborbit_of_size_28", False, ANCHOR_O8PLUS2,
           lambda run: 28 in run.shared(_o8plus2_suborbits)),
)

_CASES["factorizations"] = (
    # per table row, the order in which its A and B meet, under its anchor
    lambda run: [
        _Check(f"row{i:02d}_q{q}_{a}_{b}", meet, anchor,
               lambda run, i=i: run.shared(_psl2_row_meets)[i])
        for i, (q, (a, _, b, _, meet, anchor))
        in enumerate(run.shared(_psl2_tables).rows)
    ],
    _Check("examples_cross_check", True, ANCHOR_EXAMPLES,
           lambda run: run.shared(_psl2_tables).examples_ok),
)

_CASES["products"] = tuple(
    _Check(f"{base}{suffix}", expected, anchor,
           lambda run, base=base, fact=fact: fact(run.shared(_product_squares)[base]))
    for base, aut_order in (("K4", 24), ("Petersen", 120))
    for suffix, expected, anchor, fact in (
        ("_aut_order", aut_order, ANCHOR_DELTA, lambda s: s.aut_order),
        ("2_vertex_transitive", True, ANCHOR_NOT_2_ARC, lambda s: s.transitive),
        ("2_arc_transitive", True, ANCHOR_NOT_2_ARC, lambda s: s.s_max >= 1),
        ("2_two_arc_transitive", False, ANCHOR_G_ALPHA, lambda s: s.s_max == 2),
        ("2_neighborhood_product_law", True, ANCHOR_NEIGHBORHOOD, lambda s: s.law),
    )
)


def _blowup_certified(run):
    W = run.shared(_a5wr2).group
    cert = run.shared(_a5wr2_blowup)
    return len(cert["top_images"]) == len(W.generators) and cert["xi_size"] == 5


_CASES["classify-a6"] = (
    *_grid_rows(2, 6, ANCHOR_OMEGA_36, 60, ANCHOR_A5_COMPONENTS),
    _Check("plinth_stabilizer_order", 10, ANCHOR_A6_STABILIZER,
           lambda run: run.shared(_w_stabilizer, 2).order),
    _Check("plinth_stabilizer_dihedral", True, ANCHOR_A6_STABILIZER,
           lambda run: run.shared(_w_stabilizer, 2) == (10, True)),
    _Check("a5wr2_inclusion_type", "Normal", ANCHOR_A5WR2,
           lambda run: run.shared(_a5wr2).verdict.tag),
    _Check("a5wr2_product_formula", True, ANCHOR_PRODUCT_FORMULA,
           lambda run: run.shared(_a5wr2).verdict.details.get(
               "stabilizer_product_formula_holds")),
    _Check("blowup_certificate", True, ANCHOR_BLOWUP, _blowup_certified),
)

_CASES["classify-sp44"] = (
    *_grid_rows(4, 120, ANCHOR_OMEGA_120, 8160, ANCHOR_W4_PROJECTIONS),
    _Check("top_projection_transitive", True, ANCHOR_TOP,
           lambda run: run.shared(_w4_top_projection)),
    _Check("plinth_stabilizer_order", 68, ANCHOR_W4_STABILIZER,
           lambda run: run.shared(_w_stabilizer, 4).order),
    _Check("dihedral_34_index_2", True, ANCHOR_D34,
           lambda run: run.shared(_w_stabilizer, 4) == (68, True)),
)

CASES = tuple(_CASES)
_DATA_CASES = ("m12", "o8plus2")  # the cases that read --data


def run_case(name, options=None):
    """Run one named verification case and return its report; a case
    that raises ends with status ERROR."""
    if name not in _CASES:
        raise Unrecognized(f"unknown case {name!r}; choose from {CASES}")
    opts = {"seed": 1, "data": None}
    if options:
        opts.update(options)
    if opts["data"] is not None and name not in _DATA_CASES:
        raise Unrecognized(f"case {name!r} reads no --data; only m12 and o8plus2 do")
    run = _Run(name, opts["seed"], opts["data"])
    try:
        if name == "o8plus2" and not _o8plus2_present(run.data):
            run.report.skipped = True
        else:
            _run_table(run, _CASES[name])
    except Exception as exc:
        # the case boundary, and the package's one blanket handler: any
        # exception, a bug included, ends the case as an ERROR report that
        # names the stage, so a crash is never read as a failed check
        raised, stage = run.raised
        run.report.error = {
            "stage": stage if raised is exc else None,
            "type": type(exc).__name__,
            "message": str(exc),
        }
    return run.report


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="plinth", description="verification suite"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run one verification case")
    verify.add_argument("case", choices=CASES)
    verify.add_argument("--seed", type=int, default=1)
    verify.add_argument("--json", dest="json_path", default=None)
    verify.add_argument("--data", default=None)
    args = parser.parse_args(argv)

    options = {"seed": args.seed, "data": args.data}
    try:
        report = run_case(args.case, options)
        emit_report(report, fmt="text")
        if args.json_path:
            emit_report(report, fmt="json", path=args.json_path)
    except PlinthError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    if report.error:
        sys.stderr.write(f"error: {report.error['message']}\n")
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
