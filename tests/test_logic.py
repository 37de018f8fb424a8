"""Formula structure, validation, horizons and anchor ranges."""

import pytest

from ctstl import (Always, And, Atom, Cumulative, Not, TimeInterval,
                   horizon, iter_nodes, node_horizons, parse, validate)
from ctstl.errors import (InvalidInterval, NonPositiveTau, TauOutOfRange,
                          UnknownVariable, UnvalidatedFormula)

X = ("x",)
XY = ("x", "y")


def atom(s="x > 0"):
    return parse(s)


def test_validate_annotates_cumulative_order():
    f = validate(parse("C[2,8]^4 (x > 1)"), X)
    assert isinstance(f, Cumulative)
    assert f.order == 4
    assert f.span == (2, 8)


def test_order_is_ceiling_of_tau_over_delta():
    f = validate(parse("C[0,10]^3.2 (x > 0)"), X)
    assert f.order == 4
    f = validate(parse("C[0,10]^3 (x > 0)"), X, delta=1.0)
    assert f.order == 3
    # tau within snapping distance of an integer multiple does not round up
    f = validate(Cumulative(TimeInterval(0, 2), 1.0 + 1e-12, atom()), X)
    assert f.order == 1


def test_order_with_fractional_step():
    f = validate(Cumulative(TimeInterval(0.0, 2.5), 1.2, atom()), X,
                 delta=0.5)
    assert f.order == 3  # ceil(1.2 / 0.5)
    assert f.span == (0, 5)


def test_tau_bounds():
    with pytest.raises(NonPositiveTau):
        validate(Cumulative(TimeInterval(0, 4), 0.0, atom()), X)
    with pytest.raises(NonPositiveTau):
        validate(Cumulative(TimeInterval(0, 4), -1.0, atom()), X)
    with pytest.raises(NonPositiveTau):
        validate(Cumulative(TimeInterval(0, 4), float("nan"), atom()), X)
    # width of [0,4] is 5 samples, tau = 5 still fits, 5.5 does not
    validate(Cumulative(TimeInterval(0, 4), 5.0, atom()), X)
    with pytest.raises(TauOutOfRange):
        validate(Cumulative(TimeInterval(0, 4), 5.5, atom()), X)


def test_interval_must_align_with_step():
    with pytest.raises(InvalidInterval):
        validate(Always(TimeInterval(0, 1.5), atom()), X, delta=1.0)
    with pytest.raises(InvalidInterval):
        validate(Always(TimeInterval(2, 1), atom()), X)
    with pytest.raises(InvalidInterval):
        validate(Always(TimeInterval(-1, 1), atom()), X)


def test_unknown_variable_rejected():
    with pytest.raises(UnknownVariable):
        validate(parse("z > 0"), XY)


def test_validate_is_idempotent():
    f = validate(parse("F[0,3] (x > 0 && y < 2)"), XY)
    assert validate(f, XY) == f


def test_unvalidated_temporal_use_raises():
    f = Always(TimeInterval(0, 2), atom())
    with pytest.raises(UnvalidatedFormula):
        horizon(f)


def test_shared_subterm_objects_are_split():
    a = Atom((("x", 1.0),), ">", 0.0)
    f = validate(And(a, Not(a)), X)
    assert f.left is not f.right.child


def test_horizon_simple():
    assert horizon(validate(parse("x > 0"), X)) == 0
    assert horizon(validate(parse("G[0,5] (x > 0)"), X)) == 5
    assert horizon(validate(parse("C[2,8]^4 (x > 1)"), X)) == 8
    assert horizon(validate(parse("G[0,2] C[1,5]^3 (x > 0)"), X)) == 7


def test_horizon_until_reads_left_only_before_the_jump():
    # (G[0,9] x>0) U[0,2] (y>0): left is sampled on [t, t1) with t1 <= t+2,
    # so the deepest left read is at t + 1 + 9
    f = validate(parse("(G[0,9] (x > 0)) U[0,2] (y > 0)"), XY)
    assert horizon(f) == 10
    f = validate(parse("(G[0,9] (x > 0)) U[0,0] (y > 0)"), XY)
    assert horizon(f) == 0  # left never read at all
    f = validate(parse("(x > 0) U[1,3] (G[0,4] (y > 0))"), XY)
    assert horizon(f) == 7


def test_node_horizons_root_and_shift():
    f = validate(parse("G[0,2] C[1,5]^3 (x > 0)"), X)
    hz = node_horizons(f)
    ids = {type(n).__name__: nid for nid, n in iter_nodes(f)}
    assert hz[ids["Always"]] == (0, 0)
    assert hz[ids["Cumulative"]] == (0, 2)
    assert hz[ids["Atom"]] == (1, 7)


def test_node_horizons_until_left_is_clipped():
    f = validate(parse("(x > 0) U[0,3] (y > 0)"), XY)
    hz = node_horizons(f)
    nodes = list(iter_nodes(f))
    (root_id, _), (l_id, _), (r_id, _) = nodes
    assert hz[root_id] == (0, 0)
    assert hz[l_id] == (0, 2)
    assert hz[r_id] == (0, 3)


def test_node_horizons_until_zero_window_left_subtree_is_empty():
    f = validate(parse("(G[0,5] (x > 0)) U[0,0] (y > 0)"), XY)
    hz = node_horizons(f)
    nodes = list(iter_nodes(f))
    for nid, node in nodes[1:]:
        if node is f.right:
            assert hz[nid] == (0, 0)
    l_id = next(nid for nid, n in nodes if n is f.left)
    lo, hi = hz[l_id]
    assert lo > hi


def test_horizon_consistency_with_anchor_ranges(rng):
    # the deepest sample reachable from any node's anchor range must
    # equal the root horizon
    from conftest import make_case
    for _ in range(60):
        f, _sig = make_case(rng, depth=3, length=1)
        hz = node_horizons(f)
        deepest = max(
            (hi + horizon(node) for (nid, node) in iter_nodes(f)
             for (lo, hi) in [hz[nid]] if lo <= hi),
            default=0)
        assert deepest == horizon(f)


def test_interval_str():
    assert str(TimeInterval(0, 2.5)) == "[0,2.5]"


def test_iter_nodes_preorder():
    f = validate(parse("(x > 0) && !(y < 1)"), XY)
    kinds = [type(n).__name__ for _, n in iter_nodes(f)]
    assert kinds == ["And", "Atom", "Not", "Atom"]
    assert [nid for nid, _ in iter_nodes(f)] == [0, 1, 2, 3]
