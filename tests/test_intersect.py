"""Unit tests for :mod:`repro.core.intersect`.

The merge is the exactness core of intersection plans: a non-None
``merge_parts`` result must satisfy ``∩ parts(t) ⊆ M(t)`` (the engine
closes the other direction with one containment test).  These tests pin
the spine/label compatibility rules, the forced-position analysis, the
tractable/intractable toggle with its dominance certificate, and the
inverse direction — :func:`fragment_views` splitting one query into two
curated half-views that only an intersection can serve.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.containment import contains
from repro.core.intersect import (
    forced_spine_positions,
    fragment_views,
    merge_parts,
    spine_branches,
)
from repro.patterns.ast import Axis, Pattern
from repro.patterns.serialize import to_xpath
from repro.core.embedding import evaluate

from .strategies import patterns

C, D = Axis.CHILD, Axis.DESCENDANT


class TestForcedSpinePositions:
    def test_all_child_all_forced(self):
        assert forced_spine_positions([C, C, C]) == [True] * 4

    def test_single_descendant_still_all_forced(self):
        # Every position is top-forced (above the // edge) or
        # bottom-forced (below it) — the tractable regime's shape.
        assert forced_spine_positions([C, D, C]) == [True] * 4
        assert forced_spine_positions([D, C]) == [True] * 3
        assert forced_spine_positions([C, D]) == [True] * 3

    def test_two_descendants_unforce_the_middle(self):
        assert forced_spine_positions([D, D]) == [True, False, True]
        assert forced_spine_positions([D, C, D]) == [True, False, False, True]

    def test_root_and_output_always_forced(self):
        for axes in ([], [D], [D, D, D, D]):
            forced = forced_spine_positions(axes)
            assert forced[0] and forced[-1]


class TestSpineBranches:
    def test_branches_exclude_the_spine_edge(self, p):
        rows = spine_branches(p("a[w][z]/b[x]/c"))
        assert [len(row) for row in rows] == [2, 1, 0]
        assert sorted(node.label for _, node in rows[0]) == ["w", "z"]

    def test_output_node_edges_are_branches(self, p):
        rows = spine_branches(p("a/b[x][y]"))
        assert [len(row) for row in rows] == [0, 2]


class TestMergeParts:
    def test_merges_sibling_predicates(self, p):
        merged = merge_parts([p("a[w]/b"), p("a[z]/b")])
        assert merged is not None
        # Exactly the conjunction, checked by mutual containment.
        target = p("a[w][z]/b")
        assert contains(merged, target) and contains(target, merged)

    def test_wildcard_labels_glb_to_the_concrete_one(self, p):
        merged = merge_parts([p("a[w]/b"), p("*/b[x]")])
        target = p("a[w]/b[x]")
        assert merged is not None
        assert contains(merged, target) and contains(target, merged)

    def test_merged_contained_in_every_part(self, p):
        parts = [p("a[w]/b[x]"), p("a[z]/b"), p("a/b[y]")]
        merged = merge_parts(parts)
        assert merged is not None
        for part in parts:
            assert contains(merged, part)

    def test_incompatible_labels_rejected(self, p):
        assert merge_parts([p("a/b"), p("c/b")]) is None

    def test_mismatched_spines_rejected(self, p):
        assert merge_parts([p("a/b"), p("a//b")]) is None  # axes differ
        assert merge_parts([p("a/b"), p("a/b/c")]) is None  # depth differs

    def test_fewer_than_two_or_empty_rejected(self, p):
        assert merge_parts([p("a/b")]) is None
        assert merge_parts([p("a/b"), Pattern.empty()]) is None

    def test_tractable_only_rejects_unforced_spine(self, p):
        parts = [p("a//b[x][y]//c"), p("a//b[x]//c")]
        assert merge_parts(parts) is None  # default tractable_only=True

    def test_dominated_unforced_segment_accepted(self, p):
        # Position 1 is unforced (two // edges) but part 0 dominates:
        # same label, and {x} ⊆ {x, y} at the unforced position.
        parts = [p("a//b[x][y]//c"), p("a//b[x]//c")]
        merged = merge_parts(parts, tractable_only=False)
        target = p("a//b[x][y]//c")
        assert merged is not None
        assert contains(merged, target) and contains(target, merged)

    def test_forced_spine_merges_in_both_regimes(self, p):
        # The half-views a[w]/b and a[z]/b, each compensated by b/c:
        # their compositions over-approximate the query, and on a fully
        # forced spine both regimes merge them back to it exactly.
        query = p("a[w][z]/b/c")
        parts = [p("a[w]/b/c"), p("a[z]/b/c")]
        for part in parts:
            assert contains(query, part)
        for tractable_only in (True, False):
            merged = merge_parts(parts, tractable_only=tractable_only)
            assert merged is not None
            assert contains(merged, query) and contains(query, merged)

    def test_undominated_unforced_segment_rejected(self, p):
        # Disjoint branch sets at the unforced position: no part can
        # witness the whole segment, even in the intractable regime.
        parts = [p("a//b[x]//c"), p("a//b[y]//c")]
        assert merge_parts(parts, tractable_only=False) is None

    def test_merge_evaluates_to_the_intersection(self, p, t):
        doc = t("r(a(w,b),a(z,b),a(w,z,b))")
        parts = [p("r//a[w]/b"), p("r//a[z]/b")]
        merged = merge_parts(parts)
        assert merged is not None
        expected = evaluate(parts[0], doc) & evaluate(parts[1], doc)
        assert evaluate(merged, doc) == expected
        assert len(evaluate(merged, doc)) == 1  # only the third ``a``

    @given(patterns(max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_self_merge_never_strengthens(self, pattern):
        # Merging a pattern with itself must stay equivalent to it —
        # the branch-union construction may duplicate branches but can
        # never add constraints.
        if pattern.is_empty:
            return
        merged = merge_parts([pattern, pattern], tractable_only=False)
        # A pattern always dominates its own unforced segments, so the
        # self-merge is never rejected for a non-empty pattern.
        assert merged is not None
        assert contains(merged, pattern) and contains(pattern, merged)


class TestFragmentViews:
    def test_splits_root_predicates_across_prefixes(self, p):
        pair = fragment_views(p("a[w][z]/b/c"))
        assert pair is not None
        assert {to_xpath(half) for half in pair} == {"a[w]/b", "a[z]/b"}

    def test_halves_merge_back_to_the_prefix(self, p):
        pair = fragment_views(p("a[w][z]/b/c"))
        assert pair is not None
        merged = merge_parts(list(pair))
        target = p("a[w][z]/b")
        assert merged is not None
        assert contains(merged, target) and contains(target, merged)

    def test_query_not_mutated(self, p):
        query = p("a[w][z]/b/c")
        key_before = query.canonical_key()
        assert fragment_views(query) is not None
        assert query.canonical_key() == key_before

    def test_explicit_depth_and_position(self, p):
        pair = fragment_views(p("a/b[x][y]"), depth=1, position=1)
        assert pair is not None
        assert {to_xpath(half) for half in pair} == {"a/b[x]", "a/b[y]"}

    def test_singleton_split(self, p):
        pair = fragment_views(p("a[u][w][z]/b/c"), position=0, split=(1,))
        assert pair is not None
        assert {to_xpath(half) for half in pair} == {"a[w]/b", "a[u][z]/b"}

    def test_no_splittable_position_returns_none(self, p):
        assert fragment_views(Pattern.empty()) is None
        assert fragment_views(p("a/b/c")) is None  # no branches anywhere
        assert fragment_views(p("a[w]/b/c")) is None  # one branch only

    def test_unforced_positions_not_eligible_by_default(self, p):
        # Position 1 carries two branches but sits between two // edges;
        # a split there could never merge back, so the default skips it
        # and (no other position having ≥ 2 branches) returns None.
        assert fragment_views(p("a//b[x][y]//c/d")) is None

    def test_out_of_range_arguments_rejected(self, p):
        query = p("a[w][z]/b/c")
        assert fragment_views(query, depth=3) is None
        assert fragment_views(query, position=5) is None
        assert fragment_views(query, split=(0, 1)) is None  # empty half
        assert fragment_views(query, split=(7,)) is None  # no valid index

    @given(patterns(max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_halves_are_wellformed_and_remergeable(self, pattern):
        # Whenever the default split applies, the two halves are
        # non-empty prefix views that merge back exactly to the prefix
        # conjunction — i.e. each half contains the merge (weakness),
        # and the merge is exact (merge_parts accepted it).
        pair = fragment_views(pattern)
        if pair is None:
            return
        first, second = pair
        assert not first.is_empty and not second.is_empty
        assert first.depth == second.depth <= pattern.depth
        merged = merge_parts([first, second], tractable_only=False)
        assert merged is not None
        assert contains(merged, first) and contains(merged, second)
