import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlang import bigraph as B

ROOT = Path(__file__).resolve().parent.parent


def test_empty_graph():
    g = B.empty()
    assert g.left == frozenset() and g.right == frozenset()
    assert g.undefined_pairs() == frozenset()
    assert g.edge_items() == ()


def test_add_right_undef():
    g, atom = B.empty().add_right_undef()
    assert atom == 0 and g.right == {0} and g.edge_items() == ()
    two_funs = B.PartialBigraph([0, 1], [], {})
    g2, atom2 = two_funs.add_right_undef()
    assert g2.edge(0, atom2) is None and g2.edge(1, atom2) is None
    g3, a = g2.add_right_undef()
    g3, b = g3.add_right_undef()
    assert a != b


def test_defined_additions_keep_pending_edges():
    g = B.TotalBigraph([0], [0], {(0, 0): True})
    coin = B.Pending(Fraction(1, 3))
    row, fun = g.add_left_defined({0: coin})
    column, atom = g.add_right_defined({0: coin})
    assert row.edge(fun, 0) == coin and column.edge(0, atom) == coin
    assert row.edge(0, 0) is True and row.undefined_pairs() == frozenset()
    with pytest.raises(TypeError):
        bool(coin)


def test_add_left_undef():
    g, atom = B.empty().add_right_undef()
    g, f1 = g.add_left_undef()
    g, f2 = g.add_left_undef()
    assert f1 != f2
    assert g.undefined_pairs() == {(f1, atom), (f2, atom)}


def test_set_edge_once():
    g, atom = B.empty().add_right_undef()
    g, fun = g.add_left_undef()
    g2 = g.set_edge(fun, atom, True)
    assert g2.edge(fun, atom) is True
    with pytest.raises(B.EdgeAlreadyDefined):
        g2.set_edge(fun, atom, False)


def test_undefined_pairs_examples():
    assert B.empty().undefined_pairs() == frozenset()
    g, a = B.empty().add_right_undef()
    g, f1 = g.add_left_undef()
    g, f2 = g.add_left_undef()
    assert g.undefined_pairs() == {(f1, a), (f2, a)}
    total = B.TotalBigraph([0], [0], {(0, 0): True})
    assert total.undefined_pairs() == frozenset()


def test_completions_counts_and_distinctness():
    total = B.TotalBigraph([0], [0], {(0, 0): True})
    assert total.completions() == [(total, {})]
    g, a = B.empty().add_right_undef()
    g, f = g.add_left_undef()
    two = g.completions()
    assert len(two) == 2
    # the two-undefined-edge mid-state yields all four total extensions
    g2, f2 = g.add_left_undef()
    four = g2.completions()
    assert len(four) == 4
    assert len({t for t, _ in four}) == 4
    for t, assign in four:
        assert t.undefined_pairs() == frozenset()
        for pair, v in assign.items():
            assert t.edge(*pair) == v


def test_completions_preserve_defined_edges():
    g, a = B.empty().add_right_undef()
    g, f1 = g.add_left_undef()
    g = g.set_edge(f1, a, True)
    g, f2 = g.add_left_undef()
    for total, _ in g.completions():
        assert total.edge(f1, a) is True


def test_undef_additions_are_inclusions():
    g, a = B.empty().add_right_undef()
    g, f = g.add_left_undef()
    bigger, _ = g.add_right_undef()
    B.Embedding.make(g, bigger, {f: f}, {a: a})
    bigger2, _ = g.add_left_undef()
    B.Embedding.make(g, bigger2, {f: f}, {a: a})


def test_completions_guard(monkeypatch):
    g = B.PartialBigraph(range(3), range(3), {(f, a): None for f in range(3) for a in range(3)})
    monkeypatch.setenv("MEMLANG_MAX_UNDEF", "8")
    with pytest.raises(B.TooManyUndefined):
        g.completions()
    monkeypatch.setenv("MEMLANG_MAX_UNDEF", "9")
    assert len(g.completions()) == 512


def test_addition_legs_are_embeddings_on_defined_edges():
    g = B.TotalBigraph([0], [0], {(0, 0): True})
    h, atom = g.add_right_defined({0: False})
    B.Embedding.make(g, h, {0: 0}, {0: 0})
    h2, fun = g.add_left_defined({0: True})
    B.Embedding.make(g, h2, {0: 0}, {0: 0})


def test_embedding_rejects_edge_flips():
    g = B.TotalBigraph([0], [0], {(0, 0): True})
    h = B.TotalBigraph([0], [0, 1], {(0, 0): False, (0, 1): True})
    # mapping the lone atom onto atom 0 flips the edge value
    with pytest.raises(ValueError):
        B.Embedding.make(g, h, {0: 0}, {0: 0})
    B.Embedding.make(g, h, {0: 0}, {0: 1})


def test_sliced_keeps_the_labels_it_maps_to_themselves_and_the_graph_type():
    g = B.PartialBigraph(
        [0, 1, 2], [0, 1],
        {(0, 0): True, (0, 1): None, (1, 0): False, (1, 1): True, (2, 0): None, (2, 1): False},
    )
    out = g.sliced({0: 0, 2: 2}, {1: 1})
    assert type(out) is B.PartialBigraph
    assert out.left == {0, 2} and out.right == {1}
    assert out.edge_items() == (((0, 1), None), ((2, 1), False))
    world = B.TotalBigraph([0, 1], [0], {(0, 0): True, (1, 0): False})
    assert type(world.sliced({1: 1}, {0: 0})) is B.TotalBigraph
    assert world.sliced({0: 0, 1: 1}, {0: 0}) == world
    assert world.sliced({}, {}) == B.TotalBigraph()


def test_sliced_rejects_a_node_outside_the_graph_and_a_merge():
    g = B.TotalBigraph([0], [0, 1], {(0, 0): True, (0, 1): False})
    with pytest.raises(ValueError):
        g.sliced({0: 0}, {2: 2})
    with pytest.raises(ValueError):
        g.sliced({1: 1}, {0: 0})
    with pytest.raises(ValueError):
        g.sliced({0: 0}, {0: 5, 1: 5})


def test_renumbered_slice_of_every_node_in_order_is_the_graph():
    g = B.TotalBigraph([0, 1], [0], {(0, 0): True, (1, 0): False})
    same, lmap, rmap = B.renumbered_slice(g, [0, 1], [0])
    assert same == g and lmap == {0: 0, 1: 1} and rmap == {0: 0}
    assert B.renumbered_slice(g, [], [])[0] == B.empty()


def test_renumbered_slice_keeps_the_edges_between_listed_nodes():
    g = B.PartialBigraph(
        [0, 1, 2], [0, 1],
        {(0, 0): True, (0, 1): None, (1, 0): False, (1, 1): True, (2, 0): None, (2, 1): False},
    )
    out, lmap, rmap = B.renumbered_slice(g, [2, 0], [1])
    assert lmap == {2: 0, 0: 1} and rmap == {1: 0}
    assert out.left == {0, 1} and out.right == {0}
    assert out.edge_items() == (((0, 0), False), ((1, 0), None))
    # slicing twice is slicing once to the smaller node lists
    twice, _, _ = B.renumbered_slice(out, [1], [0])
    assert twice == B.renumbered_slice(g, [0], [1])[0]


def test_renumbered_slice_renumbers_in_listed_order():
    g = B.TotalBigraph([3], [17], {(3, 17): True})
    out, lmap, rmap = B.renumbered_slice(g, [3], [17])
    assert lmap == {3: 0} and rmap == {17: 0}
    assert out.edge_items() == (((0, 0), True),)
    # swapped order swaps labels but keeps the unordered edge multiset
    g2 = B.TotalBigraph([0], [5, 9], {(0, 5): True, (0, 9): False})
    a, _, _ = B.renumbered_slice(g2, [0], [5, 9])
    b, _, rmap = B.renumbered_slice(g2, [0], [9, 5])
    assert rmap == {9: 0, 5: 1}
    assert a != b
    assert sorted(v for _, v in a.edge_items()) == sorted(v for _, v in b.edge_items())


def test_renumbered_slice_reuses_the_labels_of_unlisted_nodes():
    g = B.TotalBigraph([], [0, 7], {})
    out, _, rmap = B.renumbered_slice(g, [], [7])
    assert rmap == {7: 0}  # atom 0 is not listed, so its label is free
    assert out.right == {0}


def test_renumbered_slice_rejects_a_repeated_node():
    g = B.TotalBigraph([0], [0, 1], {(0, 0): True, (0, 1): False})
    with pytest.raises(ValueError):
        B.renumbered_slice(g, [0], [1, 1])
    with pytest.raises(ValueError):
        B.renumbered_slice(g, [0, 0], [0])


def test_renumbered_slice_rejects_a_node_outside_the_graph():
    g = B.TotalBigraph([0], [0, 1], {(0, 0): True, (0, 1): False})
    with pytest.raises(ValueError):
        B.renumbered_slice(g, [0], [2])
    with pytest.raises(ValueError):
        B.renumbered_slice(g, [1], [0])


def test_graph_equality_and_hash():
    g1 = B.TotalBigraph([0], [0], {(0, 0): True})
    g2 = B.TotalBigraph([0], [0], {(0, 0): True})
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != B.TotalBigraph([0], [0], {(0, 0): False})


def test_json_form_sorted():
    g, a = B.empty().add_right_undef()
    g, f = g.add_left_undef()
    g = g.set_edge(f, a, True)
    assert g.to_json() == {"left": [0], "right": [0], "edges": [[0, 0, "true"]]}


# -- extended and completed: every derived graph ------------------------------

COIN = B.Pending(Fraction(1, 3))


@st.composite
def graphs(draw, total=False):
    """A small graph whose edges are drawn from True, False, a pending coin
    and, unless ``total``, None; a total one half the time otherwise."""
    left = draw(st.sets(st.integers(0, 4), max_size=3))
    right = draw(st.sets(st.integers(0, 4), max_size=3))
    values = [True, False, COIN] if total else [True, False, COIN, None]
    edges = {(f, a): draw(st.sampled_from(values)) for f in sorted(left) for a in sorted(right)}
    if total or (None not in edges.values() and draw(st.booleans())):
        return B.TotalBigraph(left, right, edges)
    return B.PartialBigraph(left, right, edges)


def _same(got, expected):
    assert type(got) is type(expected)
    assert got == expected and got.edge_items() == expected.edge_items()


def _edges(g):
    return dict(g.edge_items())


def _least_unused(labels):
    """The smallest natural that is not a label: a new node's label, also
    on a graph whose labels have gaps."""
    return min(set(range(len(labels) + 1)) - labels)


@settings(max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_undef_derivations_are_partial_whatever_the_receiver(g, data):
    fun = _least_unused(g.left)
    got, label = g.add_left_undef()
    assert label == fun
    _same(got, B.PartialBigraph(g.left | {fun}, g.right, {**_edges(g), **{(fun, a): None for a in g.right}}))
    atom = _least_unused(g.right)
    got, label = g.add_right_undef()
    assert label == atom
    _same(got, B.PartialBigraph(g.left, g.right | {atom}, {**_edges(g), **{(f, atom): None for f in g.left}}))
    undef = sorted(g.undefined_pairs())
    if undef:
        pair = data.draw(st.sampled_from(undef))
        value = data.draw(st.booleans())
        _same(g.set_edge(*pair, value), B.PartialBigraph(g.left, g.right, {**_edges(g), pair: value}))
    elif g.left and g.right:
        with pytest.raises(B.EdgeAlreadyDefined):
            g.set_edge(min(g.left), min(g.right), True)


@settings(max_examples=60, deadline=None)
@given(graphs(total=True), st.data())
def test_defined_derivations_are_total(g, data):
    values = st.sampled_from([True, False, COIN])
    row = {a: data.draw(values) for a in g.right}
    fun = _least_unused(g.left)
    got, label = g.add_left_defined(row)
    assert label == fun
    _same(got, B.TotalBigraph(g.left | {fun}, g.right, {**_edges(g), **{(fun, a): v for a, v in row.items()}}))
    column = {f: data.draw(values) for f in g.left}
    atom = _least_unused(g.right)
    got, label = g.add_right_defined(column)
    assert label == atom
    _same(got, B.TotalBigraph(g.left, g.right | {atom}, {**_edges(g), **{(f, atom): v for f, v in column.items()}}))


def test_a_gapped_graph_takes_its_smallest_unused_labels():
    # the labels a cut terminal keeps may have gaps: a new node fills the
    # first one, as a canonical class's fresh node does, not max + 1
    g = B.TotalBigraph([0, 2], [1, 3], {(f, a): f < a for f in (0, 2) for a in (1, 3)})
    row, fun = g.add_left_defined({1: True, 3: COIN})
    column, atom = g.add_right_defined({0: False, 2: True})
    assert (fun, atom) == (1, 0)
    assert row.left == {0, 1, 2} and row.edge(1, 3) == COIN and row.edge(2, 1) is False
    assert column.right == {0, 1, 3} and column.edge(2, 0) is True
    partial = B.PartialBigraph([1], [0, 4], {(1, 0): None, (1, 4): True})
    assert partial.add_left_undef()[1] == 0 and partial.add_right_undef()[1] == 1
    assert B.smallest_free(3, [0, 2, 3, 6]) == [1, 4, 5]
    assert B.smallest_free(2, frozenset(range(4))) == [4, 5] and B.smallest_free(1, ()) == [0]


@settings(max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_extended_sets_the_given_edges_over_the_graph(g, data):
    funs = data.draw(st.sets(st.integers(5, 6), max_size=2))
    atoms = data.draw(st.sets(st.integers(5, 6), max_size=2))
    left, right = g.left | funs, g.right | atoms
    new_pairs = [(f, a) for f in sorted(left) for a in sorted(right) if f in funs or a in atoms]
    overlay = {pair: data.draw(st.sampled_from([True, False, COIN])) for pair in new_pairs}
    for pair in sorted(_edges(g)):
        if data.draw(st.booleans()):  # pairs of the graph itself may be set too
            overlay[pair] = data.draw(st.booleans())
    expected = {**_edges(g), **overlay}
    _same(g.extended(funs, atoms, overlay), type(g)(left, right, expected))
    _same(g.extended(funs, atoms, overlay, partial=True), B.PartialBigraph(left, right, expected))


@pytest.mark.parametrize("receiver", [B.PartialBigraph, B.TotalBigraph])
def test_extended_rejects_an_edge_map_that_misses_or_overshoots_the_new_pairs(receiver):
    g = receiver([0], [0], {(0, 0): True})
    with pytest.raises(ValueError):
        g.extended([], [1], {})  # (0, 1) is missing
    with pytest.raises(ValueError):
        g.extended([], [1], {(0, 1): False, (1, 1): True})  # function 1 is not a node


def test_defined_additions_reject_a_row_or_column_that_misses_or_overshoots():
    g = B.TotalBigraph([0], [0], {(0, 0): True})
    with pytest.raises(ValueError):
        g.add_left_defined({})
    with pytest.raises(ValueError):
        g.add_right_defined({0: True, 1: False})


@settings(max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_completed_fills_each_unsampled_edge(g, data):
    fills = {pair: data.draw(st.sampled_from([True, False, COIN])) for pair in g.undefined_pairs()}
    got = g.completed(fills.__getitem__)
    _same(got, B.TotalBigraph(g.left, g.right, {**_edges(g), **fills}))


def test_completed_with_a_fill_that_leaves_an_edge_unsampled_raises():
    g = B.PartialBigraph([0], [0, 1], {(0, 0): None, (0, 1): True})
    with pytest.raises(ValueError):
        g.completed(lambda pair: None)
    # a graph with nothing unsampled never calls the fill
    total = B.TotalBigraph([0], [0], {(0, 0): COIN})
    _same(total.completed(lambda pair: None), total)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_completions_are_the_eager_product(g):
    undef = sorted(g.undefined_pairs())
    expected = []
    for bits in itertools.product((False, True), repeat=len(undef)):
        assign = dict(zip(undef, bits))
        expected.append((B.TotalBigraph(g.left, g.right, {**_edges(g), **assign}), assign))
    got = g.completions()
    assert [assign for _, assign in got] == [assign for _, assign in expected]
    for (world, _), (want, _) in zip(got, expected):
        _same(world, want)


def _built_or_rejected(build):
    """The graph ``build`` returns, or ``ValueError`` if it raises one."""
    try:
        return build()
    except ValueError:
        return ValueError


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_extended_rejects_exactly_what_the_constructor_rejects(g, data):
    # the delta checks against the constructor's full ones, on an edge map
    # that sets every new pair and then, maybe, leaves one out, adds a pair
    # outside the nodes, does both (the pair count stays right), adds a key
    # that is not a pair, or sets one unsampled
    funs = data.draw(st.sets(st.integers(5, 6), max_size=2))
    atoms = data.draw(st.sets(st.integers(5, 6), max_size=2))
    left, right = g.left | funs, g.right | atoms
    new_pairs = [(f, a) for f in sorted(left) for a in sorted(right) if f in funs or a in atoms]
    overlay = {pair: data.draw(st.sampled_from([True, False, COIN])) for pair in new_pairs}
    overlay.update({pair: data.draw(st.booleans()) for pair in sorted(_edges(g)) if data.draw(st.booleans())})
    defect = data.draw(st.sampled_from(["none", "missing", "outside", "swapped", "not-a-pair", "unsampled"]))
    if defect == "not-a-pair":
        overlay[7] = True
    if defect in ("missing", "swapped") and new_pairs:
        del overlay[data.draw(st.sampled_from(new_pairs))]
    if defect in ("outside", "swapped"):
        overlay[data.draw(st.sampled_from([(7, min(right, default=7)), (min(left, default=7), 7)]))] = True
    if defect == "unsampled" and overlay:
        overlay[data.draw(st.sampled_from(sorted(overlay)))] = None
    partial = data.draw(st.booleans())
    kind = B.PartialBigraph if partial else type(g)
    expected = _built_or_rejected(lambda: kind(left, right, {**_edges(g), **overlay}))
    got = _built_or_rejected(lambda: g.extended(funs, atoms, overlay, partial=partial))
    if expected is ValueError:
        assert got is ValueError
    else:
        _same(got, expected)


@settings(max_examples=100, deadline=None)
@given(graphs(), st.data())
def test_completed_rejects_exactly_what_the_constructor_rejects(g, data):
    fills = {pair: data.draw(st.sampled_from([True, False, COIN, None])) for pair in g.undefined_pairs()}
    expected = _built_or_rejected(lambda: B.TotalBigraph(g.left, g.right, {**_edges(g), **fills}))
    got = _built_or_rejected(lambda: g.completed(fills.__getitem__))
    if expected is ValueError:
        assert got is ValueError
    else:
        _same(got, expected)


def test_the_rejection_checks_survive_python_O():
    # the delta checks are not asserts: under `python -O` they reject the
    # same derivations, a step still rejects an environment whose labels
    # lie outside the graph, a coin still rejects a weight outside [0, 1],
    # in a flip step too, and check_soundness still rejects terminal paths
    # whose weights are not a distribution
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("MEMLANG_MAX_UNDEF", None)
    tests = [
        "tests/test_bigraph.py::test_extended_rejects_exactly_what_the_constructor_rejects",
        "tests/test_bigraph.py::test_completed_rejects_exactly_what_the_constructor_rejects",
        "tests/test_bigraph.py::test_extended_rejects_an_edge_map_that_misses_or_overshoots_the_new_pairs",
        "tests/test_bigraph.py::test_completed_with_a_fill_that_leaves_an_edge_unsampled_raises",
        "tests/test_opsem.py::test_step_rejects_an_environment_naming_a_label_outside_the_graph",
        "tests/test_opsem.py::test_step_rejects_a_restored_environment_naming_a_label_outside_the_graph",
        "tests/test_dist.py::test_two_point_rejects_a_weight_outside_the_unit_interval_as_findist_does",
        "tests/test_opsem.py::test_a_flip_step_rejects_a_bias_outside_the_unit_interval",
        "tests/test_denot.py::test_check_soundness_rejects_terminal_paths_whose_weights_are_not_a_distribution",
    ]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, capture_output=True, check=False,
    )
    assert proc.returncode == 0, proc.stdout.decode()[-2000:]
    assert b"20 passed" in proc.stdout


@pytest.mark.parametrize(
    "graph, name",
    [
        (B.PartialBigraph([0], [0], {(0, 0): None}), "PartialBigraph"),
        (B.TotalBigraph([0], [0], {(0, 0): COIN}), "TotalBigraph"),
        (B.PartialBigraph([0], [0], {(0, 0): None}).completed(lambda pair: True), "TotalBigraph"),
        (B.TotalBigraph([0], [0], {(0, 0): True}).add_left_undef()[0], "PartialBigraph"),
    ],
)
def test_repr_names_the_graph_type(graph, name):
    assert repr(graph) == f"{name}(left={sorted(graph.left)}, right={sorted(graph.right)}, edges={list(graph.edge_items())})"
