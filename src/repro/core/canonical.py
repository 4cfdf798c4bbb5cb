"""Canonical models of patterns (paper Section 2.1).

A *canonical model* of a pattern ``P`` is a tree obtained by (1) replacing
every wildcard with the special label ⊥, and (2) replacing every
descendant edge with a path of one or more edges whose interior nodes are
labeled ⊥.  ``τ(P)`` — every descendant edge instantiated with a single
edge — is the *minimal* canonical model (footnote 1 of the paper).

Canonical models come with a distinguished node: the image of the
pattern's output node.  Containment testing (Section 2.2, after [14])
quantifies over canonical models whose expansion lengths are bounded by a
function of the containing pattern — see :mod:`repro.core.containment`.

Incremental enumeration
-----------------------
Two enumerators are provided:

* :func:`canonical_models` — the simple generator: one fresh tree per
  expansion vector, in lexicographic (``itertools.product``) order.
  Models are independent objects; keep as many as you like.
* :class:`CanonicalEngine` — the hot-path enumerator behind the
  containment engine.  It builds the **maximal** canonical tree (every
  ⊥-chain at full length) exactly once, numbers it in postorder, and then
  walks the expansion vectors in **reflected-Gray-code order**: each step
  changes a single ⊥-chain by one node, which is realized by an O(1)
  splice of the live tree plus an O(1) patch of the dynamic
  parent/child-mask tables.  Because splicing interior chain nodes never
  reorders the surviving nodes, the postorder numbering, the contiguous
  strict-descendant ranges and the per-node ancestor masks computed from
  the maximal tree remain valid for every model — only an ``active``
  bitmask changes.  Candidate embeddings of a container pattern are then
  decided by the bitset DP of :meth:`CanonicalEngine.embeds`, with the
  output image pinned to the distinguished node.

  Gray-code order starts at the all-ones vector, i.e. the minimal model
  ``τ(P)`` is always checked first — the cheapest model and empirically
  the most likely counterexample — and cheap (small) vectors cluster
  early, giving the containment test its early-termination ordering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from ..patterns.ast import Axis, Pattern, PNode, WILDCARD
from ..xmltree.node import BOTTOM_LABEL, TNode
from ..xmltree.tree import XMLTree
from .embedding import TreeIndex, iter_bits, pattern_postorder

__all__ = [
    "CanonicalModel",
    "CanonicalEngine",
    "tau",
    "canonical_models",
    "incremental_models",
    "count_canonical_models",
    "gray_vectors",
    "star_length",
]


@dataclass
class CanonicalModel:
    """A canonical model with its distinguished output node.

    Attributes
    ----------
    tree:
        The instantiated document tree.
    output:
        The tree node corresponding to the pattern's output node.
    node_map:
        Mapping from pattern nodes to their corresponding tree nodes.
    expansion:
        The chosen path length for each descendant edge, keyed by
        ``(id(parent), id(child))`` of the pattern edge.
    """

    tree: XMLTree
    output: TNode
    node_map: dict[PNode, TNode]
    expansion: dict[tuple[int, int], int]


def _instantiate(
    pattern: Pattern, lengths: dict[tuple[int, int], int]
) -> CanonicalModel:
    """Build the canonical model for the given descendant-edge lengths.

    Iterative, so deep chain patterns never hit the recursion limit.
    """
    node_map: dict[PNode, TNode] = {}
    root_p = pattern.root
    assert root_p is not None
    # Each stack entry: (pattern node, tree node to attach it under or
    # None for the root).  Attachment anchors already account for the
    # ⊥-interior of descendant edges.
    label = BOTTOM_LABEL if root_p.label == WILDCARD else root_p.label
    root_t = TNode(label)
    node_map[root_p] = root_t
    stack: list[PNode] = [root_p]
    while stack:
        pnode = stack.pop()
        tnode = node_map[pnode]
        for axis, pchild in pnode.edges:
            sub_label = BOTTOM_LABEL if pchild.label == WILDCARD else pchild.label
            sub = TNode(sub_label)
            node_map[pchild] = sub
            if axis is Axis.CHILD:
                tnode.add_child(sub)
            else:
                length = lengths[(id(pnode), id(pchild))]
                anchor = tnode
                for _ in range(length - 1):
                    anchor = anchor.new_child(BOTTOM_LABEL)
                anchor.add_child(sub)
            stack.append(pchild)
    return CanonicalModel(
        tree=XMLTree(root_t),
        output=node_map[pattern.output],  # type: ignore[index]
        node_map=node_map,
        expansion=dict(lengths),
    )


def tau(pattern: Pattern) -> CanonicalModel:
    """The transformation ``τ``: the minimal canonical model.

    Every wildcard becomes ⊥ and every descendant edge is instantiated
    with a single edge.  Each pattern node has exactly one corresponding
    tree node (returned in ``node_map``).
    """
    pattern._require_nonempty()
    lengths = {
        (id(parent), id(child)): 1
        for parent, axis, child in pattern.edges()
        if axis is Axis.DESCENDANT
    }
    return _instantiate(pattern, lengths)


def descendant_edges(pattern: Pattern) -> list[tuple[PNode, PNode]]:
    """All descendant edges of the pattern as ``(parent, child)`` pairs."""
    return [
        (parent, child)
        for parent, axis, child in pattern.edges()
        if axis is Axis.DESCENDANT
    ]


def canonical_models(
    pattern: Pattern, max_length: int
) -> Iterator[CanonicalModel]:
    """Enumerate canonical models with expansions in ``1..max_length``.

    The number of models is ``max_length ** (#descendant edges)`` — the
    exponential heart of the coNP containment test.  Every yielded model
    is an independent tree; for the zero-copy enumerator used by the
    containment hot path see :class:`CanonicalEngine` and
    :func:`incremental_models`.
    """
    pattern._require_nonempty()
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    edges = descendant_edges(pattern)
    keys = [(id(parent), id(child)) for parent, child in edges]
    for combo in itertools.product(range(1, max_length + 1), repeat=len(edges)):
        yield _instantiate(pattern, dict(zip(keys, combo)))


def count_canonical_models(pattern: Pattern, max_length: int) -> int:
    """Number of canonical models enumerated for the given bound."""
    if pattern.is_empty:
        return 0
    return max_length ** len(descendant_edges(pattern))


def gray_vectors(digits: int, base: int) -> Iterator[tuple[int, ...]]:
    """All vectors of ``{0..base-1}**digits`` in reflected-Gray order.

    Successive vectors differ in exactly one digit, by exactly ±1; the
    first vector is all zeros.  This is Knuth's loopless mixed-radix
    reflected Gray code (TAOCP 7.2.1.1, Algorithm H) specialised to a
    uniform radix.
    """
    if digits == 0:
        yield ()
        return
    if base < 1:
        raise ValueError("base must be >= 1")
    if base == 1:
        # Algorithm H needs radix >= 2; the single-vector case is trivial.
        yield (0,) * digits
        return
    a = [0] * digits
    d = [1] * digits
    f = list(range(digits + 1))
    while True:
        yield tuple(a)
        j = f[0]
        f[0] = 0
        if j == digits:
            return
        a[j] += d[j]
        if a[j] == 0 or a[j] == base - 1:
            d[j] = -d[j]
            f[j] = f[j + 1]
            f[j + 1] = j + 1


class _QPlan:
    """A container pattern compiled against one engine's maximal tree.

    Holds the postorder DP steps (label base mask, output flag, child
    edges as ``(is_child_axis, postorder_slot)``), the per-descendant-
    edge relevance vector shaping the embeds-memo fingerprint, the
    fingerprint→verdict memo itself, and a reusable sat buffer.
    """

    __slots__ = ("q", "steps", "rel", "sat", "memo")

    def __init__(
        self,
        q: Pattern,
        steps: list[tuple[int | None, bool, list[tuple[bool, int]]]],
        rel: list[bool],
        n: int,
    ):
        self.q = q
        self.steps = steps
        self.rel = rel
        self.sat = [0] * n
        self.memo: dict[int, bool] = {}


class CanonicalEngine:
    """Incremental canonical-model enumerator with a bitset embed test.

    Builds the maximal canonical tree of ``pattern`` (all ⊥-chains at
    ``max_length``) once, then steps through expansion vectors in Gray
    order, splicing one ⊥ node in or out of the live tree per step.  The
    fixed postorder numbering of the maximal tree supplies contiguous
    strict-descendant ranges and ancestor masks that stay valid across
    every model; only the ``active`` mask, the dynamic parent array and a
    couple of child-mask rows change per step.

    Use :meth:`models` to drive the enumeration and :meth:`embeds` to ask
    whether a container pattern (weakly) embeds into the *current* model
    with its output pinned to the distinguished node.
    """

    __slots__ = (
        "pattern",
        "max_length",
        "total",
        "_edges",
        "_edge_keys",
        "_lengths",
        "_node_map",
        "_tree",
        "_index",
        "_slots",
        "_u_idx",
        "_c_idx",
        "_active",
        "_parent_dyn",
        "_child_mask_dyn",
        "_patched_mask",
        "_slot_masks",
        "_chain_parent_masks",
        "_c_bits",
        "_output_idx",
        "_root_bit",
        "_q_cache",
        "memo_hits",
        "memo_misses",
    )

    def __init__(self, pattern: Pattern, max_length: int):
        pattern._require_nonempty()
        if max_length < 1:
            raise ValueError("max_length must be >= 1")
        self.pattern = pattern
        self.max_length = max_length
        self._edges = descendant_edges(pattern)
        self._edge_keys = [(id(p), id(c)) for p, c in self._edges]
        self.total = max_length ** len(self._edges)

        # Maximal tree: every descendant edge expanded to ``max_length``.
        node_map: dict[PNode, TNode] = {}
        chain_nodes: dict[tuple[int, int], list[TNode]] = {}
        root_p = pattern.root
        assert root_p is not None
        label = BOTTOM_LABEL if root_p.label == WILDCARD else root_p.label
        root_t = TNode(label)
        node_map[root_p] = root_t
        stack: list[PNode] = [root_p]
        while stack:
            pnode = stack.pop()
            tnode = node_map[pnode]
            for axis, pchild in pnode.edges:
                sub_label = (
                    BOTTOM_LABEL if pchild.label == WILDCARD else pchild.label
                )
                sub = TNode(sub_label)
                node_map[pchild] = sub
                if axis is Axis.CHILD:
                    tnode.add_child(sub)
                else:
                    interior: list[TNode] = []
                    anchor = tnode
                    for _ in range(max_length - 1):
                        anchor = anchor.new_child(BOTTOM_LABEL)
                        interior.append(anchor)
                    anchor.add_child(sub)
                    chain_nodes[(id(pnode), id(pchild))] = interior
                stack.append(pchild)

        self._node_map = node_map
        self._tree = XMLTree(root_t)
        index = TreeIndex(root_t)
        self._index = index
        self._slots = [
            [index.index[id(node)] for node in chain_nodes[key]]
            for key in self._edge_keys
        ]
        self._u_idx = [index.index[id(node_map[p])] for p, _ in self._edges]
        self._c_idx = [index.index[id(node_map[c])] for _, c in self._edges]
        self._output_idx = index.index[id(node_map[pattern.output])]  # type: ignore[index]
        self._root_bit = 1 << (index.n - 1)
        # Per-edge masks used by the embeds memo: the OR of the edge's
        # ⊥-slot bits, the chain-child bit, and (for the relevance DP's
        # union-parents step) every parent the chain child can have
        # across expansion vectors.
        self._slot_masks = [
            sum(1 << s for s in slots) for slots in self._slots
        ]
        self._chain_parent_masks = [
            self._slot_masks[j] | (1 << self._u_idx[j])
            for j in range(len(self._edges))
        ]
        self._c_bits = [1 << c for c in self._c_idx]
        self._q_cache: dict[int, "_QPlan"] = {}
        self.memo_hits = 0
        self.memo_misses = 0
        self._reset()

    # ------------------------------------------------------------------
    # Dynamic structure
    # ------------------------------------------------------------------
    def _reset(self) -> None:
        """(Re)initialize the live structure to the all-ones vector τ."""
        index = self._index
        self._active = index.all_mask
        self._parent_dyn = list(index.parent)
        self._child_mask_dyn = list(index.child_mask)
        self._lengths = [self.max_length] * len(self._edges)
        # At full length every dynamic parent equals its static one.
        self._patched_mask = 0
        for j in range(len(self._edges)):
            while self._lengths[j] > 1:
                self._shrink(j)

    def _grow(self, j: int) -> None:
        """Expansion length of edge ``j``: ℓ → ℓ + 1 (activate one slot)."""
        length = self._lengths[j]
        slots = self._slots[j]
        new_slot = slots[length - 1]
        prev_last = slots[length - 2] if length >= 2 else self._u_idx[j]
        c = self._c_idx[j]
        bit_c = 1 << c
        self._child_mask_dyn[prev_last] = (
            self._child_mask_dyn[prev_last] & ~bit_c
        ) | (1 << new_slot)
        self._child_mask_dyn[new_slot] = bit_c
        self._parent_dyn[new_slot] = prev_last
        self._parent_dyn[c] = new_slot
        self._active |= 1 << new_slot
        self._lengths[j] = length + 1
        # ``parent_dyn`` diverges from the static parent array only at
        # chain children whose edge is below full length; track those
        # bits so the DP can batch everything else word-at-a-time.
        if self._lengths[j] == self.max_length:
            self._patched_mask &= ~bit_c
        else:
            self._patched_mask |= bit_c
        # Splice the live tree: prev_last → new_slot → c.
        post = self._index.post
        new_t, prev_t, c_t = post[new_slot], post[prev_last], post[c]
        new_t.add_child(c_t)
        prev_t.add_child(new_t)

    def _shrink(self, j: int) -> None:
        """Expansion length of edge ``j``: ℓ → ℓ - 1 (deactivate one slot)."""
        length = self._lengths[j]
        slots = self._slots[j]
        dead_slot = slots[length - 2]
        prev = self._parent_dyn[dead_slot]
        c = self._c_idx[j]
        self._child_mask_dyn[prev] = (
            self._child_mask_dyn[prev] & ~(1 << dead_slot)
        ) | (1 << c)
        self._parent_dyn[c] = prev
        self._active &= ~(1 << dead_slot)
        self._lengths[j] = length - 1
        # Shrinking always leaves the edge below full length.
        self._patched_mask |= 1 << c
        # Splice the live tree: prev adopts c, the dead slot detaches.
        post = self._index.post
        post[prev].add_child(post[c])
        post[dead_slot].detach()

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def models(self) -> Iterator["CanonicalEngine"]:
        """Step through all expansion vectors (Gray order, τ first).

        Yields ``self`` after each mutation; the engine's state (and the
        live tree from :meth:`current_model`) is only valid until the
        next step.  Restartable: each call re-enumerates from τ.
        """
        self._reset()
        previous: tuple[int, ...] | None = None
        for vector in gray_vectors(len(self._edges), self.max_length):
            if previous is not None:
                for j, (old, new) in enumerate(zip(previous, vector)):
                    if old != new:
                        if new > old:
                            self._grow(j)
                        else:
                            self._shrink(j)
                        break
            previous = vector
            yield self

    def current_model(self) -> CanonicalModel:
        """A :class:`CanonicalModel` view of the current state.

        The returned ``tree``/``node_map`` alias the engine's live tree:
        they are valid only until the next enumeration step (copy them if
        you need persistence).
        """
        return CanonicalModel(
            tree=self._tree,
            output=self._node_map[self.pattern.output],  # type: ignore[index]
            node_map=self._node_map,
            expansion={
                key: length
                for key, length in zip(self._edge_keys, self._lengths)
            },
        )

    # ------------------------------------------------------------------
    # Bitset embedding test
    # ------------------------------------------------------------------
    #: Bound on ``_q_cache``: engines outlive single containment calls
    #: via the cross-call LRU, so the per-engine container cache must not
    #: grow with the number of distinct containers ever tested.
    _Q_CACHE_LIMIT = 64
    #: Bound on each plan's fingerprint→verdict memo, cleared wholesale
    #: on overflow (deterministic in enumeration order).
    _MEMO_LIMIT = 8192

    def _plan_of(self, q: Pattern) -> "_QPlan":
        # The cache entry holds ``q`` itself: keying by id() alone would
        # let a garbage-collected pattern's address be reused by a new
        # one, serving a stale plan (and a wrong verdict).
        cached = self._q_cache.get(id(q))
        if cached is None or cached.q is not q:
            if len(self._q_cache) >= self._Q_CACHE_LIMIT:
                self._q_cache.clear()
            cached = self._compile_plan(q)
            self._q_cache[id(q)] = cached
        return cached

    def _compile_plan(self, q: Pattern) -> "_QPlan":
        """Compile ``q`` into postorder DP steps plus a relevance vector.

        The relevance vector marks the descendant edges whose expansion
        length can influence the DP verdict for this container.  It is
        derived from an *over-approximating* DP against the maximal
        tree: no activity restriction (wildcards range over every node,
        including all ⊥ slots), no output pinning, and union-parents for
        chain children (a chain child can attach to any of its slots or
        directly to the chain head, depending on the vector).  Every
        transition is monotone in the child sat sets, so each
        ``sat_star`` is a superset of the true sat set under *every*
        expansion vector.  An edge whose slots never enter any
        reachable sat set, and whose chain child is never the input of
        a child-axis step, therefore cannot affect the verdict.
        """
        index = self._index
        label_mask = index.label_mask
        nodes = pattern_postorder(q.root)  # type: ignore[arg-type]
        slot_of = {id(node): i for i, node in enumerate(nodes)}
        output_node = q.output
        steps: list[tuple[int | None, bool, list[tuple[bool, int]]]] = []
        for node in nodes:
            base = (
                None
                if node.label == WILDCARD
                else label_mask.get(node.label, 0)
            )
            edges = [
                (axis is Axis.CHILD, slot_of[id(child)])
                for axis, child in node.edges
            ]
            steps.append((base, node is output_node, edges))

        all_mask = index.all_mask
        c_bits = self._c_bits
        chain_parents = self._chain_parent_masks
        sat_star = [0] * len(steps)
        union_all = 0
        child_step_union = 0
        for i, (base, _is_out, edges) in enumerate(steps):
            cand = all_mask if base is None else base
            for is_child, child_slot in edges:
                if not cand:
                    break
                child_sat = sat_star[child_slot]
                if is_child:
                    child_step_union |= child_sat
                    acc = index.parents_of(child_sat)
                    for j, c_bit in enumerate(c_bits):
                        if child_sat & c_bit:
                            acc |= chain_parents[j]
                else:
                    acc = index.ancestors_of(child_sat)
                cand &= acc
            sat_star[i] = cand
            union_all |= cand

        rel = [
            bool(
                (self._slot_masks[j] & union_all)
                | (c_bits[j] & child_step_union)
            )
            for j in range(len(self._edges))
        ]
        return _QPlan(q, steps, rel, len(steps))

    def _embed_dp(self, plan: "_QPlan") -> int:
        """The word-parallel bitset DP; returns the root's sat mask."""
        index = self._index
        active = self._active
        patched = self._patched_mask
        parent_dyn = self._parent_dyn
        parents_of = index.parents_of
        ancestors_of = index.ancestors_of
        out_bit = 1 << self._output_idx
        sat = plan.sat
        for i, (base, is_out, edges) in enumerate(plan.steps):
            cand = active if base is None else base & active
            if is_out:
                cand &= out_bit
            for is_child, child_slot in edges:
                if not cand:
                    break
                child_sat = sat[child_slot]
                if not child_sat:
                    cand = 0
                    break
                if is_child:
                    plain = child_sat & ~patched
                    acc = parents_of(plain) if plain else 0
                    spliced = child_sat & patched
                    if spliced:
                        # Only chain children below full length have a
                        # dynamic parent differing from the static one.
                        for u in iter_bits(spliced):
                            p = parent_dyn[u]
                            if p >= 0:
                                acc |= 1 << p
                else:
                    # Ancestor masks of the maximal tree stay correct:
                    # splicing ⊥ interiors preserves ancestry among the
                    # surviving nodes, and ``cand`` is already restricted
                    # to active nodes.
                    acc = ancestors_of(child_sat)
                cand &= acc
            sat[i] = cand
        return sat[-1]

    def embeds(self, q: Pattern, weak: bool = False) -> bool:
        """Does ``q`` embed into the current model producing its output?

        Root-preserving unless ``weak``; the image of ``q``'s output node
        is pinned to the model's distinguished node, which is exactly the
        per-model condition of the canonical containment test.

        Verdicts are memoized per container on an *active-mask
        fingerprint*: the exact expansion length of every edge relevant
        to ``q`` (plus the ``weak`` flag), with irrelevant edges
        collapsed to a constant.  Gray-code steps that only toggle
        chains the container cannot observe short-circuit here instead
        of re-running the DP; hits and misses are counted on the engine
        and folded into ``ContainmentStats`` by the containment layer.
        """
        if q.is_empty:
            return False
        plan = self._plan_of(q)
        radix = self.max_length + 1
        fp = 1 if weak else 0
        rel = plan.rel
        for j, length in enumerate(self._lengths):
            fp = fp * radix + (length if rel[j] else 0)
        memo = plan.memo
        verdict = memo.get(fp)
        if verdict is not None:
            self.memo_hits += 1
            return verdict
        self.memo_misses += 1
        root_sat = self._embed_dp(plan)
        if weak:
            verdict = bool(root_sat)
        else:
            verdict = bool(root_sat & self._root_bit)
        if len(memo) >= self._MEMO_LIMIT:
            memo.clear()
        memo[fp] = verdict
        return verdict


def incremental_models(
    pattern: Pattern, max_length: int
) -> Iterator[CanonicalModel]:
    """Zero-copy canonical-model enumeration (Gray order, τ first).

    Yields :class:`CanonicalModel` views over **one shared mutable tree**
    that is spliced in place between yields — each yielded model is valid
    only until the next iteration step.  Use :func:`canonical_models`
    when models must outlive the loop.
    """
    pattern._require_nonempty()
    engine = CanonicalEngine(pattern, max_length)
    for state in engine.models():
        yield state.current_model()


def star_length(pattern: Pattern) -> int:
    """The longest chain of wildcard nodes joined by child edges.

    This is the quantity (``w`` in [14]) that bounds the descendant-edge
    expansion lengths a containment test must consider: a ⊥-path longer
    than every star chain of the containing pattern can always absorb
    extra length through one of its descendant edges.
    """
    if pattern.is_empty:
        return 0
    best = 0
    chain: dict[int, int] = {}
    root = pattern.root
    assert root is not None
    for node in pattern_postorder(root):
        if node.label == WILDCARD:
            longest_child = 0
            for axis, child in node.edges:
                if axis is Axis.CHILD and child.label == WILDCARD:
                    longest_child = max(longest_child, chain[id(child)])
            chain[id(node)] = 1 + longest_child
            best = max(best, chain[id(node)])
        else:
            chain[id(node)] = 0
    return best
