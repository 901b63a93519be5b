"""Every order bound the package passes to ``PermGroup._bounded`` is true.

One run of the seven runnable cases records each bounded group.  A
bound is true when it is at least the order of the group's complete
chain, built here without any bound.
"""

import sys
from collections import Counter

import pytest

import plinth.cli as cli
from plinth.perm import PermGroup, StabChain

RUNNABLE = (
    "sylvester", "sp44", "m12", "factorizations", "products",
    "classify-a6", "classify-sp44",
)

# Each unbounded chain of these groups takes minutes, so their bounds
# are checked by the certificates' own order checks, not here: the
# point stabilizers of the degree-14,400 pair actions of Aut W(4) and of
# its socle Sp(4,4) (the pair builder's G_0 among them), those two pair
# actions, and the plinth kernel that index2_subgroups lifts from the
# quotient.
SKIPPED_ABOVE_1000 = Counter(
    {"point_stabilizer": 5, "ovoid_spread_action": 2, "index2_subgroups": 1}
)


@pytest.fixture(scope="module")
def bounded_calls():
    calls = []
    real = PermGroup._bounded.__func__

    def spy(cls, generators, degree, bound):
        generators = list(generators)
        site = sys._getframe(1).f_code.co_name
        calls.append((site, degree, bound, generators))
        return real(cls, generators, degree, bound)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PermGroup, "_bounded", classmethod(spy))
        mp.setattr(cli, "_SHARED", {})  # build every stage in this run
        for case in RUNNABLE:
            assert cli.run_case(case).status == "PASS", case
    return calls


def test_every_bounded_site_is_seen(bounded_calls):
    assert {site for site, *_ in bounded_calls} == {
        "point_stabilizer", "small_generating_set", "product_action_wreath",
        "coset_action", "index2_subgroups", "_w_sp4_image", "component",
        "graph_automorphism_group", "ovoid_spread_action", "order_over",
    }


def test_only_the_named_large_groups_are_skipped(bounded_calls):
    large = Counter(site for site, degree, *_ in bounded_calls if degree > 1000)
    assert large == SKIPPED_ABOVE_1000


def test_every_small_bound_is_at_least_the_order(bounded_calls):
    checked = 0
    loose = Counter()
    for site, degree, bound, gens in bounded_calls:
        if degree > 1000:
            continue
        order = StabChain(degree, gens).order()
        assert bound >= order, (site, degree, bound, order)
        checked += 1
        loose[site] += bound > order
    assert checked == len(bounded_calls) - sum(SKIPPED_ABOVE_1000.values())
    # true but loose: index2_subgroups' degree-4 quotient coset actions,
    # bounded by |G| (the grids' of Aut W(2) and Aut W(4) over their
    # socles, and the A6 flavour naming's of Aut W(2) over A6), the two
    # degree-5 components of A5 x A5 in A5 wr S2, bounded by |A5 x A5|
    # while each is A5, and the two trial pairs that small_generating_set
    # rejects on Aut W(2), bounded by its order 1,440 while each
    # generates a subgroup of order 720
    assert +loose == Counter(
        {"coset_action": 3, "component": 2, "small_generating_set": 2}
    )
