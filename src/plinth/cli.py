"""Command-line verification suite.

Runs the case pipelines end to end and emits structured certificates;
each check carries its source anchor, and reports are deterministic for
a fixed seed (timings excluded from the determinism hash).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .actions import coset_action, cyclic_class_action, product_action_wreath
from .algebra import identify_extension_flavor, psl2_action, sp4, symplectic_gq
from .autgq import graph_automorphism_group, incidence_graph
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
)
from .graphs import (
    Graph,
    direct_power,
    edge_orbit_graph,
    is_connected,
    orbital_graph,
    s_arc_transitivity_max,
    suborbits,
    two_arc_transitive,
)
from .perm import (
    _DTYPE,
    PermGroup,
    Permutation,
    SubgroupRef,
    derived_subgroup,
    intersection_small,
    point_stabilizer,
    random_subgroup_of_order,
    small_generating_set,
    stabilizer_orbit_sizes,
)

SCHEMA_VERSION = 1
CASES = (
    "sylvester",
    "sp44",
    "m12",
    "o8plus2",
    "factorizations",
    "products",
    "classify-a6",
    "classify-sp44",
)

FLAVORS = ("PSL", "PGL", "PSigmaL", "M10", "PGammaL")


def data_path(name):
    """Path of a packaged data file."""
    return os.path.join(os.path.dirname(__file__), "data", name)


# ---------------------------------------------------------------------------
# generator files


@dataclass
class GeneratorFile:
    """Parsed generator file: degree, generators, optional claimed order."""

    degree: int
    generators: list
    expected_order: int = None

    def emit(self):
        """Canonical text form; parse(emit(x)) == x byte for byte."""
        lines = [f"degree {self.degree}"]
        for g in self.generators:
            lines.append(f"gen {g.cycle_string()}")
        if self.expected_order is not None:
            lines.append(f"order {self.expected_order}")
        return "\n".join(lines) + "\n"

    def group(self):
        return PermGroup(list(self.generators), degree=self.degree)


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
        try:
            points = [int(tok) - 1 for tok in chunk.split(",")]
        except ValueError:
            raise ParseError(f"bad cycle {chunk!r}", line=lineno)
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
    body = text.strip()[1:-1]
    try:
        images = np.array(
            [int(tok) - 1 for tok in body.split(",")], dtype=_DTYPE
        )
    except ValueError:
        raise ParseError("bad image list", line=lineno)
    if len(images) != degree:
        raise ParseError("image list length != degree", line=lineno)
    if sorted(images.tolist()) != list(range(degree)):
        raise NotBijection(f"image list on line {lineno} is not a bijection")
    return Permutation(images, _checked=True)


def parse_generators(path):
    """Parse a generator file (see GeneratorFile.emit for the format)."""
    degree = None
    generators = []
    expected_order = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(str(exc))
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("degree "):
            try:
                degree = int(line.split()[1])
            except (IndexError, ValueError):
                raise ParseError("bad degree line", line=lineno)
            if degree < 1:
                raise ParseError("degree must be positive", line=lineno)
        elif line.startswith("gen "):
            if degree is None:
                raise ParseError("gen before degree", line=lineno)
            body = line[4:].strip()
            if body.startswith("["):
                generators.append(_parse_image_notation(body, degree, lineno))
            else:
                generators.append(_parse_cycle_notation(body, degree, lineno))
        elif line.startswith("order "):
            try:
                expected_order = int(line.split()[1])
            except (IndexError, ValueError):
                raise ParseError("bad order line", line=lineno)
        else:
            raise ParseError(f"unrecognized line {line!r}", line=lineno)
    if degree is None:
        raise ParseError("missing degree line", line=1)
    return GeneratorFile(degree, generators, expected_order)


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
        if self.skipped and not self.checks:
            return "SKIP"
        return "PASS" if all(c["pass"] for c in self.checks) else "FAIL"

    def determinism_hash(self):
        core = {
            "schema": SCHEMA_VERSION,
            "case": self.case,
            "status": self.status,
            "seed": self.seed,
            "checks": self.checks,
        }
        blob = json.dumps(core, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_json_dict(self):
        return {
            "schema": SCHEMA_VERSION,
            "case": self.case,
            "status": self.status,
            "seed": self.seed,
            "checks": self.checks,
            "hash": self.determinism_hash(),
            "timings_ms": self.timings_ms,
        }

    def exit_code(self):
        return {"PASS": 0, "FAIL": 1, "SKIP": 2}[self.status]


class _Phase:
    """Context manager recording one timing phase in a report."""

    def __init__(self, report, name):
        self.report = report
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        ms = (time.perf_counter() - self.start) * 1000.0
        self.report.timings_ms[self.name] = round(ms, 1)
        return False


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
# shared pipeline contexts (cached per seed so related cases share work)

_CONTEXTS = {}


def _sylvester_context(seed):
    key = ("sylvester", seed)
    if key in _CONTEXTS:
        return _CONTEXTS[key]
    groups = {f: psl2_action(9, f) for f in FLAVORS}
    act = cyclic_class_action(groups["PGammaL"], groups["PSL"], 5, seed=seed)
    G = act.group
    od = suborbits(G)
    hits = [
        s
        for s in od.suborbits
        if s.length == 5 and s.self_paired and s.representative != 0
    ]
    graph = None
    if hits:
        graph = orbital_graph(G, 0, hits[0].representative, orbital_data=od)
    flavor_groups = {}
    for f in FLAVORS:
        gens = [act.action_of(g) for g in groups[f].generators]
        flavor_groups[f] = PermGroup(
            gens, degree=G.degree, claimed_order=groups[f].order()
        )
    ctx = {
        "groups": groups,
        "act": act,
        "G": G,
        "orbital_data": od,
        "hits": hits,
        "graph": graph,
        "flavor_groups": flavor_groups,
        "plinth": flavor_groups["PSL"],
    }
    _CONTEXTS[key] = ctx
    return ctx


def _grid_context(base):
    """Grids of the context's group found through its plinth, with
    their inclusion verdicts; computed once per context."""
    if "grid" not in base:
        G, M = base["G"], base["plinth"]
        subs = index2_subgroups(G, derived=M)
        grids = find_grid_decompositions(G, ell_max=2, extra_groups=subs)
        verdicts = [classify_inclusion(G, M, E, omega=0) for E in grids]
        base["grid"] = {"grids": grids, "verdicts": verdicts}
    return base["grid"]


def _sp44_context(seed):
    key = ("sp44", seed)
    if key in _CONTEXTS:
        return _CONTEXTS[key]
    geom = symplectic_gq(4)
    cg = incidence_graph(geom)
    aut = graph_automorphism_group(cg)
    aut_small = small_generating_set(aut, seed=seed)
    socle_ref = derived_subgroup(aut_small)
    socle = socle_ref.group
    socle_small = small_generating_set(socle, seed=seed)

    # independent construction of the socle from symplectic transvections
    ma = sp4(4)
    P = geom.num_points
    line_index = {line: i for i, line in enumerate(geom.lines)}
    image_gens = []
    for g in ma.group.generators:
        img = np.empty(aut.degree, dtype=_DTYPE)
        img[:P] = g.images
        for li, line in enumerate(geom.lines):
            mapped = tuple(sorted(int(g.images[p]) for p in line))
            img[P + li] = P + line_index[mapped]
        image_gens.append(Permutation(img, _checked=True))
    sp4_image = PermGroup(
        image_gens, degree=aut.degree, claimed_order=ma.group.order()
    )

    act = cyclic_class_action(aut_small, socle_small, 17, seed=seed)
    G = act.group
    od = suborbits(G)
    plinth = PermGroup(
        [act.action_of(g) for g in socle_small.generators],
        degree=G.degree,
        claimed_order=socle_small.order(),
    )
    ctx = {
        "geom": geom,
        "aut": aut,
        "aut_small": aut_small,
        "socle": socle,
        "sp4_image": sp4_image,
        "act": act,
        "G": G,
        "orbital_data": od,
        "plinth": plinth,
    }
    _CONTEXTS[key] = ctx
    return ctx


def _scan_suborbits(G, od):
    """Per nontrivial self-paired suborbit: (length, connected,
    stabilizer-2-transitive) triples in deterministic order."""
    results = []
    for s in od.suborbits:
        if s.representative == 0 or not s.self_paired:
            continue
        graph = orbital_graph(G, 0, s.representative, orbital_data=od)
        connected, _ = is_connected(graph)
        if graph.valency() >= 2:
            two_at = two_arc_transitive(G, graph)
        else:
            two_at = False
        results.append(
            {"length": s.length, "connected": connected, "two_at": two_at}
        )
    return results


# ---------------------------------------------------------------------------
# cases

ANCHOR_SYLVESTER = 'Theorem 4.1(1), "Sylvester\'s Double Six Graph of valency 5"'
ANCHOR_IFF_S6 = 'Theorem 4.1 proof, "if and only if S6 <= G"'
ANCHOR_FLAVOR = (
    'Theorem 1.1(1)(a), "|Aut A6 : G| in {1,2}, G != PGL(2,9)" '
    "(computed truth reported per flavor)"
)
ANCHOR_CONNECTED = 'Section 1, "undirected, simple, and connected"'


def _case_sylvester(opts):
    report = VerificationReport("sylvester", opts["seed"])
    with _Phase(report, "build"):
        ctx = _sylvester_context(opts["seed"])
    with _Phase(report, "checks"):
        groups = ctx["groups"]
        expected_orders = {
            "PSL": 360,
            "PGL": 720,
            "PSigmaL": 720,
            "M10": 720,
            "PGammaL": 1440,
        }
        for f in FLAVORS:
            report.add(
                f"order_{f}",
                expected_orders[f],
                groups[f].order(),
                'Theorem 4.1 proof, "is Aut A6 = PGammaL(2,9)"',
            )
            report.add(
                f"flavor_identified_{f}",
                f,
                identify_extension_flavor(groups[f]),
                ANCHOR_FLAVOR,
            )
        report.add(
            "class_action_degree",
            36,
            ctx["G"].degree,
            'Theorem 1.1(1), "|Omega| = 6^2"',
        )
        report.add(
            "self_paired_length5_suborbits",
            1,
            len(ctx["hits"]),
            ANCHOR_SYLVESTER,
        )
        graph = ctx["graph"]
        report.add("vertices", 36, graph.n, ANCHOR_SYLVESTER)
        report.add("valency", 5, graph.valency(), ANCHOR_SYLVESTER)
        report.add("connected", True, is_connected(graph)[0], ANCHOR_CONNECTED)
        expected_two_at = {
            "PSL": False,
            "PGL": False,
            "PSigmaL": True,
            "M10": True,
            "PGammaL": True,
        }
        for f in FLAVORS:
            anchor = ANCHOR_IFF_S6 if f in ("PSL", "PSigmaL") else ANCHOR_FLAVOR
            report.add(
                f"two_arc_transitive_{f}",
                expected_two_at[f],
                two_arc_transitive(ctx["flavor_groups"][f], graph),
                anchor,
            )
        if opts.get("deep"):
            for f in FLAVORS:
                expected_s = 2 if expected_two_at[f] else 1
                report.add(
                    f"s_arc_transitivity_max_{f}",
                    expected_s,
                    s_arc_transitivity_max(ctx["flavor_groups"][f], graph),
                    'Section 1, "a sequence of vertices (v0,...,vs)"',
                )
    with _Phase(report, "grid"):
        grid_ctx = _grid_context(ctx)
        report.add(
            "grid_count",
            1,
            len(grid_ctx["grids"]),
            'Abstract, "acting in product action on"',
        )
        if grid_ctx["verdicts"]:
            verdict = grid_ctx["verdicts"][0]
            report.add(
                "inclusion_type",
                "CD2Sim",
                verdict.tag,
                'Section 2.5, "transitive must have type" CD2~',
            )
    return report


def _case_sp44(opts):
    report = VerificationReport("sp44", opts["seed"])
    with _Phase(report, "geometry"):
        ctx = _sp44_context(opts["seed"])
        geom = ctx["geom"]
        report.add(
            "gq_points",
            85,
            geom.num_points,
            'Section 1, "the generalized quadrangle associated with the '
            'non-degenerate alternating bilinear form"',
        )
        report.add(
            "gq_lines_per_point",
            [5] * 85,
            [len(ls) for ls in geom.point_lines],
            'Section 1, "the generalized quadrangle associated with the '
            'non-degenerate alternating bilinear form"',
        )
    with _Phase(report, "automorphisms"):
        aut = ctx["aut"]
        report.add(
            "aut_order",
            3916800,
            aut.order(),
            'Theorem 4.1 proof, "Aut T = Sp4(q).Ca.C2"',
        )
        report.add(
            "socle_order",
            979200,
            ctx["socle"].order(),
            'Theorem 4.1(2), "T = Sp4(q) with q = 2^a and a >= 2"',
        )
        sp4_in_aut = all(
            aut.contains(g) for g in ctx["sp4_image"].generators
        ) and all(
            ctx["socle"].contains(g) for g in ctx["sp4_image"].generators
        )
        report.add(
            "sp4_image_in_socle",
            True,
            sp4_in_aut and ctx["sp4_image"].order() == ctx["socle"].order(),
            'Theorem 4.1 proof, "Aut T = Sp4(q).Ca.C2"',
        )
    with _Phase(report, "class_action"):
        G = ctx["G"]
        report.add(
            "class_action_degree",
            14400,
            G.degree,
            'Theorem 4.1(2), "|ver Gamma| = 14,400 = 120^2"',
        )
    with _Phase(report, "suborbit_scan"):
        scan = _scan_suborbits(G, ctx["orbital_data"])
        winners = [r for r in scan if r["connected"] and r["two_at"]]
        report.add(
            "graph_yielding_suborbits",
            1,
            len(winners),
            'Theorem 4.1(2), "a graph of valency 17"',
        )
        report.add(
            "winning_valency",
            [17],
            [r["length"] for r in winners],
            'Theorem 4.1(2), "a graph of valency 17"',
        )
    with _Phase(report, "neighborhood"):
        act = ctx["act"]
        hit = next(
            s
            for s in ctx["orbital_data"].suborbits
            if s.length == 17 and s.self_paired and s.representative != 0
        )
        graph = orbital_graph(G, 0, hit.representative, ctx["orbital_data"])
        report.add("connected", True, is_connected(graph)[0], ANCHOR_CONNECTED)
        z_parent = Permutation(act.reps[0], _checked=True)
        z_class = act.action_of(z_parent)
        Z = PermGroup([z_class], degree=G.degree)
        nbrs = [int(v) for v in graph.neighbors(0)]
        orb = set()
        p = nbrs[0]
        for _ in range(17):
            orb.add(p)
            p = int(z_class.images[p])
        z_regular = (
            Z.order() == 17
            and int(z_class.images[0]) == 0
            and orb == set(nbrs)
        )
        report.add(
            "Z_regular_on_neighborhood",
            True,
            z_regular,
            'Theorem 4.1 proof, "a subgroup of order q^2+1"',
        )
        z_at_neighbor = Permutation(act.reps[nbrs[0]], _checked=True)
        meet = intersection_small(
            PermGroup([z_parent], degree=z_parent.degree),
            PermGroup([z_at_neighbor], degree=z_parent.degree),
        )
        report.add(
            "Z_meet_conjugate_trivial",
            1,
            meet.order(),
            'Theorem 4.1 proof, "Z meet Z^x = 1 as claimed"',
        )
    with _Phase(report, "grid"):
        grid_ctx = _grid_context(ctx)
        report.add(
            "grid_count",
            1,
            len(grid_ctx["grids"]),
            'Theorem 1.1(2), "|Omega| = 120^2"',
        )
        if grid_ctx["verdicts"]:
            report.add(
                "inclusion_type",
                "CD2Sim",
                grid_ctx["verdicts"][0].tag,
                'Section 2.5, "transitive must have type" CD2~',
            )
    return report


def _case_m12(opts):
    report = VerificationReport("m12", opts["seed"])
    with _Phase(report, "parse"):
        gf = parse_generators(opts.get("data") or data_path("m12.gens"))
        report.add(
            "degree",
            12,
            gf.degree,
            'Theorem 4.1 proof, "T = M12 and |Omega| = 144"',
        )
        G = gf.group()
        report.add(
            "order",
            95040,
            G.order(),
            'Theorem 4.1 proof, "T = M12 and |Omega| = 144"',
        )
    with _Phase(report, "validate"):
        # sharp 5-transitivity: iterated stabilizer orbit sizes 12..8
        report.add(
            "five_transitive_orbit_sizes",
            [12, 11, 10, 9, 8],
            stabilizer_orbit_sizes(G, 5),
            'Theorem 4.1 proof, "T = M12 and |Omega| = 144"',
        )
    with _Phase(report, "coset_action"):
        H = random_subgroup_of_order(
            G, 660, profile=(11, 2), seed=opts["seed"],
            max_iter=opts.get("max_iter") or 400,
        )
        if not report.add(
            "subgroup_order",
            660,
            H.group.order() if H else None,
            'Theorem 4.1 proof, "T = M12 and |Omega| = 144"',
        ):
            return report
        action = coset_action(G, H)
        report.add(
            "coset_degree",
            144,
            action.group.degree,
            'Theorem 4.1 proof, "T = M12 and |Omega| = 144"',
        )
        report.add(
            "faithful",
            95040,
            action.group.order(),
            'Theorem 4.1 proof, "T = M12 and |Omega| = 144"',
        )
    with _Phase(report, "suborbit_scan"):
        od = suborbits(action.group)
        lengths = sorted(s.length for s in od.suborbits)
        report.add(
            "suborbit_lengths_sum",
            144,
            sum(lengths),
            'Theorem 4.1 proof, "no graph arises in this case"',
        )
        scan = _scan_suborbits(action.group, od)
        winners = [r for r in scan if r["connected"] and r["two_at"]]
        report.add(
            "graph_yielding_suborbits",
            0,
            len(winners),
            'Theorem 4.1 proof, "no graph arises in this case"',
        )
        report.add(
            "m12_2_extension",
            "unevaluated",
            "unevaluated",
            'Theorem 4.1 proof, "no graph arises in this case" '
            "(whether the check covers M12.2 is undetermined by the text)",
        )
    return report


def _case_o8plus2(opts):
    report = VerificationReport("o8plus2", opts["seed"])
    data = opts.get("data")
    if not data:
        report.skipped = True
        return report
    group_file = os.path.join(data, "o8plus2.gens")
    sub_file = os.path.join(data, "g2_2.gens")
    if not (os.path.exists(group_file) and os.path.exists(sub_file)):
        report.skipped = True
        return report
    with _Phase(report, "parse"):
        gf = parse_generators(group_file)
        sf = parse_generators(sub_file)
        G = gf.group()
        report.add(
            "group_order",
            174182400,
            G.order(),
            'Theorem 4.1 proof, "has no suborbit of size 28"',
        )
        in_parent = all(G.contains(g) for g in sf.generators)
        if not report.add(
            "subgroup_contained",
            True,
            in_parent,
            'Theorem 4.1 proof, "has no suborbit of size 28"',
        ):
            return report
        H = SubgroupRef(G, list(sf.generators), verify=False)
        report.add(
            "subgroup_order",
            12096,
            H.group.order(),
            'Theorem 4.1 proof, "has no suborbit of size 28"',
        )
    with _Phase(report, "coset_action"):
        action = coset_action(G, H)
        report.add(
            "coset_degree",
            14400,
            action.group.degree,
            'Theorem 4.1 proof, "has no suborbit of size 28"',
        )
    with _Phase(report, "suborbits"):
        od = suborbits(action.group)
        lengths = sorted(s.length for s in od.suborbits)
        report.add(
            "no_suborbit_of_size_28",
            False,
            28 in lengths,
            'Theorem 4.1 proof, "has no suborbit of size 28"',
        )
    return report


def _case_factorizations(opts):
    report = VerificationReport("factorizations", opts["seed"])
    with _Phase(report, "rows"):
        rows = load_factorization_table(data_path("psl2_factorizations.txt"))
        for idx, (q, row) in enumerate(rows):
            try:
                rec = verify_psl2_factorization_row(
                    q, row, seed=opts["seed"],
                    max_attempts=opts.get("max_iter") or 40,
                )
                actual = rec.meet_order if rec.verified else None
            except PlinthError as exc:
                actual = f"error: {exc}"
            report.add(
                f"row{idx:02d}_q{q}_{row[0]}_{row[2]}",
                row[4],
                actual,
                row[5],
            )
    with _Phase(report, "cross_check"):
        examples = load_examples_table(data_path("liseress_examples.txt"))
        ok, collisions = cross_check_examples(examples, rows)
        report.add(
            "examples_cross_check",
            True,
            ok,
            'Corollary 6.4, "Comparing the possibilities in Tables"',
        )
    return report


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
    edge = (index[(0, 1)], index[(2, 3)])
    return edge_orbit_graph(K, edge)


def _case_products(opts):
    report = VerificationReport("products", opts["seed"])
    k4 = Graph.from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    petersen = _petersen()
    bases = [("K4", k4, 24), ("Petersen", petersen, 120)]
    for name, graph, aut_order in bases:
        with _Phase(report, name):
            from .autgq import ColoredGraph

            aut = graph_automorphism_group(ColoredGraph(graph))
            report.add(
                f"{name}_aut_order",
                aut_order,
                aut.order(),
                'Proposition 3.5, "whose vertex set is Delta"',
            )
            square = direct_power(graph, 2)
            wreath = product_action_wreath(aut, 2, PermGroup.symmetric(2))
            W = wreath.group
            pts, _ = W.orbit(0)
            report.add(
                f"{name}2_vertex_transitive",
                True,
                len(pts) == square.n,
                'Proposition 3.5, "is not (G,2)-arc-transitive"',
            )
            s_max = s_arc_transitivity_max(W, square, s_cap=2)
            report.add(
                f"{name}2_arc_transitive",
                True,
                s_max >= 1,
                'Proposition 3.5, "is not (G,2)-arc-transitive"',
            )
            report.add(
                f"{name}2_two_arc_transitive",
                False,
                two_arc_transitive(W, square),
                'Proposition 3.5, "Hence G_alpha is not 2-transitive"',
            )
            # neighborhood product law at a diagonal vertex
            v = 0
            diag = wreath.encode((v, v))
            got = {int(u) for u in square.neighbors(diag)}
            want = {
                wreath.encode((int(a), int(b)))
                for a in graph.neighbors(v)
                for b in graph.neighbors(v)
            }
            report.add(
                f"{name}2_neighborhood_product_law",
                True,
                got == want,
                'Section 3 remark, "the neighborhood (Gamma_1)^l(alpha)"',
            )
    return report


def _case_classify_a6(opts):
    report = VerificationReport("classify-a6", opts["seed"])
    with _Phase(report, "grid"):
        base = _sylvester_context(opts["seed"])
        ctx = _grid_context(base)
        report.add(
            "grid_count",
            1,
            len(ctx["grids"]),
            'Theorem 1.1(1), "|Omega| = 6^2"',
        )
        E = ctx["grids"][0]
        report.add(
            "block_counts",
            [6, 6],
            E.block_counts,
            'Theorem 1.1(1), "|Omega| = 6^2"',
        )
    with _Phase(report, "classify"):
        verdict = ctx["verdicts"][0]
        report.add(
            "inclusion_type",
            "CD2Sim",
            verdict.tag,
            'Section 2.5, "transitive must have type" CD2~',
        )
        report.add(
            "projection_orders",
            [60, 60],
            list(verdict.projection_orders),
            'Theorem 4.1 case T = A6 (components with point stabilizer A5)',
        )
        report.add(
            "s_at_most_3",
            True,
            verdict.s <= 3,
            'Theorem 2.8, "The number s of components"',
        )
    with _Phase(report, "stabilizer"):
        M = base["plinth"]
        stab = point_stabilizer(M, 0)
        report.add(
            "plinth_stabilizer_order",
            10,
            stab.order(),
            'Table 1, "Table for Theorem" (A6 row: dihedral stabilizer)',
        )
        # dihedral: order 10 and a witnessed dihedral subgroup of order 10
        dihedral = stab.order() == 10
        if dihedral:
            try:
                dihedral_subgroup(stab.group, 10, seed=opts["seed"])
            except ConstructionFailed:
                dihedral = False
        report.add(
            "plinth_stabilizer_dihedral",
            True,
            dihedral,
            'Table 1, "Table for Theorem" (A6 row: dihedral stabilizer)',
        )
    with _Phase(report, "a5wr2"):
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
        verdict2 = classify_inclusion(
            W, M2, wreath.decomposition, omega=0, factors=factors
        )
        report.add(
            "a5wr2_inclusion_type",
            "Normal",
            verdict2.tag,
            'Lemma 2.2 context (plinth in base group, one component per factor)',
        )
        report.add(
            "a5wr2_product_formula",
            True,
            verdict2.details.get("stabilizer_product_formula_holds"),
            'Proposition 2.5 product formula',
        )
    with _Phase(report, "blowup"):
        action, cert = blowup_embedding(W, factors, omega=0)
        report.add(
            "blowup_certificate",
            True,
            len(cert["top_images"]) == len(W.generators) and cert["xi_size"] == 5,
            'Theorem 2.6, "Let Xi be the right coset space"',
        )
    return report


def _case_classify_sp44(opts):
    report = VerificationReport("classify-sp44", opts["seed"])
    with _Phase(report, "grid"):
        base = _sp44_context(opts["seed"])
        ctx = _grid_context(base)
        report.add(
            "grid_count",
            1,
            len(ctx["grids"]),
            'Theorem 1.1(2), "|Omega| = 120^2"',
        )
        E = ctx["grids"][0]
        report.add(
            "block_counts",
            [120, 120],
            E.block_counts,
            'Theorem 1.1(2), "|Omega| = 120^2"',
        )
    with _Phase(report, "classify"):
        verdict = ctx["verdicts"][0]
        report.add(
            "inclusion_type",
            "CD2Sim",
            verdict.tag,
            'Section 2.5, "transitive must have type" CD2~',
        )
        report.add(
            "projection_orders",
            [8160, 8160],
            list(verdict.projection_orders),
            'Theorem 1.1(1) context (projections of order 979,200/120)',
        )
        report.add(
            "s_at_most_3",
            True,
            verdict.s <= 3,
            'Theorem 2.8, "The number s of components"',
        )
        from .actions import top_projection

        top = top_projection(base["G"], E)
        report.add(
            "top_projection_transitive",
            True,
            top.is_transitive() and top.order() == 2,
            'Theorem 1.1(2) context (G pi transitive on the two partitions)',
        )
    with _Phase(report, "stabilizer"):
        M = base["plinth"]
        stab = point_stabilizer(M, 0)
        report.add(
            "plinth_stabilizer_order",
            68,
            stab.order(),
            'Theorem 4.1 proof, "a subgroup of order q^2+1" '
            "(stabilizer Z<sigma> of order 4(q^2+1))",
        )
        dih = dihedral_subgroup(stab.group, 34, seed=opts["seed"])
        dih_ok = (
            dih is not None
            and dih.order() == 34
            and stab.order() // dih.order() == 2
            and all(stab.group.contains(g) for g in dih.generators)
        )
        report.add(
            "dihedral_34_index_2",
            True,
            dih_ok,
            'Table 1, "Table for Theorem" column 2 (X = D_(2^a+1), Y = X.2)',
        )
    return report


_CASE_RUNNERS = {
    "sylvester": _case_sylvester,
    "sp44": _case_sp44,
    "m12": _case_m12,
    "o8plus2": _case_o8plus2,
    "factorizations": _case_factorizations,
    "products": _case_products,
    "classify-a6": _case_classify_a6,
    "classify-sp44": _case_classify_sp44,
}


def run_case(name, options=None):
    """Run one named verification case and return its report."""
    if name not in _CASE_RUNNERS:
        raise ValueError(f"unknown case {name!r}; choose from {CASES}")
    opts = {"seed": 1, "deep": False, "data": None, "max_iter": None}
    if options:
        opts.update(options)
    return _CASE_RUNNERS[name](opts)


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
    verify.add_argument("--max-iter", type=int, default=None)
    verify.add_argument(
        "--deep",
        action="store_true",
        help="enable brute-force oracle checks on large cases",
    )
    args = parser.parse_args(argv)

    options = {
        "seed": args.seed,
        "data": args.data,
        "max_iter": args.max_iter,
        "deep": args.deep,
    }
    try:
        report = run_case(args.case, options)
    except PlinthError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    emit_report(report, fmt="text")
    if args.json_path:
        emit_report(report, fmt="json", path=args.json_path)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
