"""Embeddings and weak embeddings of patterns into trees (Definition 2.1).

An *embedding* of a pattern ``P`` into a tree ``t`` is a mapping
``e : N(P) → N(t)`` that is root-, label-, child- and
descendant-preserving.  A *weak embedding* drops root preservation.
Applying ``P`` to ``t`` yields ``P(t)``: the set of subtrees of ``t``
rooted at images of the output node; we represent each such subtree by
its root :class:`~repro.xmltree.node.TNode` (node identity), which makes
Proposition 2.4 (``R ∘ V (t) = R(V(t))``) directly testable.

Bitset engine
-------------
The implementation is the standard O(|P|·|t|) bottom-up dynamic program
for tree-pattern matching, but all ``sat`` rows are **Python-int bitsets**
over a postorder numbering of the tree (:class:`TreeIndex`):

* ``sat[pnode]`` is an int whose bit ``i`` is set iff the pattern subtree
  at ``pnode`` embeds with ``pnode ↦ post[i]``;
* a postorder numbering makes every subtree a *contiguous* index range,
  so the strict-descendant mask of a node is two shifts and a subtraction
  — no per-model set recomputation;
* per-node ancestor masks are precomputed once, so "some satisfying node
  strictly below ``v``" for a whole ``sat`` row is a union of ancestor
  masks followed by a single AND.

Per-edge work is therefore proportional to the *popcount* of the child's
``sat`` row (in machine-word chunks), instead of a Python-level loop over
all tree nodes with set lookups.  On the containment hot path this is a
large constant-factor win; see ``benchmarks/bench_perf_guard.py`` and the
committed ``BENCH_containment.json`` for measured numbers against the
seed set-based engine (preserved in
:mod:`repro.core.embedding_reference`).

All traversals are iterative, so chain patterns/trees deeper than the
interpreter recursion limit are handled.  A :class:`Matcher` can also be
**re-run against a mutated tree** via :meth:`Matcher.rematch` — the
pattern-side precomputation (postorder, selection path) is reused and
only the tree tables and ``sat`` rows are rebuilt.  The canonical-model
enumerator (:mod:`repro.core.canonical`) goes one step further and keeps
a fixed numbering across mutations.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Iterator

from ..patterns.ast import Axis, Pattern, PNode, WILDCARD
from ..xmltree.node import TNode
from ..xmltree.tree import XMLTree

try:  # Optional large-tree backend; the table backend needs nothing.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in the image
    _np = None

__all__ = [
    "TreeIndex",
    "Matcher",
    "iter_bits",
    "evaluate",
    "evaluate_forest",
    "is_model",
    "weak_output_images",
    "find_embedding",
    "pattern_postorder",
]

#: Largest tree for which the per-byte lookup tables are built.  Table
#: memory is ``2 × 256 × (n/8)`` Python ints of up to ``n`` bits, so it
#: grows quadratically: tracemalloc measures 8.6 MiB at 1,024 nodes and
#: 11.3 MiB at 1,200, against 0.13 and 0.18 MiB for the numpy tables.
#: Beyond it the numpy backend (constant per-call overhead, no
#: quadratic table) takes over.
TABLE_BACKEND_MAX_NODES = 1024

#: Masks with at most this many set bits take the per-bit loop even when
#: a table/numpy backend is active: for very sparse rows the loop's
#: per-bit cost beats the per-byte (or per-call numpy) overhead.
SPARSE_POPCOUNT_CUTOFF = 8


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def pattern_postorder(root: PNode) -> list[PNode]:
    """Postorder of a pattern subtree, iteratively (deep-chain safe)."""
    order: list[PNode] = []
    stack: list[tuple[PNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        else:
            stack.append((node, True))
            for _, child in reversed(node.edges):
                stack.append((child, False))
    return order


class TreeIndex:
    """Bitset tables for one tree: postorder numbering plus masks.

    Attributes
    ----------
    post:
        Tree nodes in postorder; ``post[i]`` is node ``i``.  The root is
        always the last index (``n - 1``).
    index:
        ``id(node) -> i`` for every node.
    parent:
        ``parent[i]`` is the index of node ``i``'s parent (-1 for root).
    child_mask:
        Bit ``j`` of ``child_mask[i]`` iff node ``j`` is a child of ``i``.
    start:
        Postorder start of node ``i``'s subtree: the descendants of ``i``
        are exactly indices ``start[i] .. i - 1`` (contiguous).
    anc_mask:
        Bits of all *proper* ancestors of node ``i``.
    label_mask:
        label -> bits of the nodes carrying that label.

    Word-parallel backends
    ----------------------
    :meth:`parents_of` and :meth:`ancestors_of` — the per-edge inner
    loop of every DP pass — run **word-at-a-time** instead of
    bit-at-a-time.  The backend is chosen by tree size (overridable via
    ``backend=``):

    * ``"table"`` (default up to :data:`TABLE_BACKEND_MAX_NODES`):
      per-byte lookup tables.  ``parent_tbl[p][v]`` is the OR of the
      parent bits of the nodes encoded by byte value ``v`` at byte
      position ``p``; a whole ``sat`` row is folded in ``n/8`` table
      hits instead of ``popcount(row)`` Python-level shifts.
    * ``"numpy"`` (larger trees, when numpy is importable): the row is
      unpacked to node indexes once and the parent/ancestor tables are
      gathered vectorized — constant Python overhead per call, no
      quadratic table memory.
    * ``"loop"``: the original per-set-bit loops, kept as the reference
      the property suite cross-checks the other two against.

    Tables are built lazily on first use; very sparse rows (see
    :data:`SPARSE_POPCOUNT_CUTOFF`) always take the loop.
    """

    __slots__ = (
        "root",
        "post",
        "index",
        "parent",
        "child_mask",
        "start",
        "anc_mask",
        "label_mask",
        "n",
        "all_mask",
        "nbytes",
        "backend",
        "_parent_tbl",
        "_anc_tbl",
        "_np_parent",
        "_np_anc",
    )

    def __init__(self, root: TNode, backend: str = "auto"):
        self.root = root
        # Iterative postorder (deep-chain safe).
        post: list[TNode] = []
        stack: list[tuple[TNode, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                post.append(node)
            else:
                stack.append((node, True))
                for child in reversed(node.children):
                    stack.append((child, False))
        index: dict[int, int] = {id(node): i for i, node in enumerate(post)}
        n = len(post)
        parent = [-1] * n
        child_mask = [0] * n
        for i, node in enumerate(post):
            for child in node.children:
                j = index[id(child)]
                parent[j] = i
                child_mask[i] |= 1 << j
        starts = [0] * n
        for i, node in enumerate(post):
            if node.children:
                starts[i] = starts[index[id(node.children[0])]]
            else:
                starts[i] = i
        # Ancestor masks: parents appear *after* children in postorder, so
        # fill root-first by descending index order via parent pointers.
        anc_mask = [0] * n
        for i in range(n - 1, -1, -1):
            p = parent[i]
            if p >= 0:
                anc_mask[i] = anc_mask[p] | (1 << p)
        label_mask: dict[str, int] = {}
        for i, node in enumerate(post):
            label_mask[node.label] = label_mask.get(node.label, 0) | (1 << i)

        self.post = post
        self.index = index
        self.parent = parent
        self.child_mask = child_mask
        self.start = starts
        self.anc_mask = anc_mask
        self.label_mask = label_mask
        self.n = n
        self.all_mask = (1 << n) - 1
        self.nbytes = (n + 7) // 8
        if backend == "auto":
            if n <= TABLE_BACKEND_MAX_NODES:
                backend = "table"
            elif _np is not None:
                backend = "numpy"
            else:
                backend = "loop"
        elif backend == "numpy" and _np is None:
            raise ValueError("numpy backend requested but numpy is missing")
        elif backend not in ("table", "numpy", "loop"):
            raise ValueError(f"unknown TreeIndex backend {backend!r}")
        self.backend = backend
        self._parent_tbl: list[list[int]] | None = None
        self._anc_tbl: list[list[int]] | None = None
        self._np_parent = None
        self._np_anc = None

    # ------------------------------------------------------------------
    # Word-parallel backends
    # ------------------------------------------------------------------
    def _build_tables(self) -> None:
        """Per-byte lookup tables: ``tbl[p][v]`` folds byte ``v`` at ``p``.

        Built incrementally — each entry extends the entry with its
        lowest bit cleared — so construction is one OR per table cell.
        """
        parent = self.parent
        anc = self.anc_mask
        n = self.n
        parent_tbl: list[list[int]] = []
        anc_tbl: list[list[int]] = []
        for pos in range(self.nbytes):
            base = pos * 8
            pt = [0] * 256
            at = [0] * 256
            for v in range(1, 256):
                low = v & -v
                rest = v ^ low
                i = base + low.bit_length() - 1
                if i < n:
                    p = parent[i]
                    pt[v] = pt[rest] | ((1 << p) if p >= 0 else 0)
                    at[v] = at[rest] | anc[i]
                else:  # padding bits of the last byte
                    pt[v] = pt[rest]
                    at[v] = at[rest]
            parent_tbl.append(pt)
            anc_tbl.append(at)
        self._parent_tbl = parent_tbl
        self._anc_tbl = anc_tbl

    def _build_numpy(self) -> None:
        """Vectorized tables: parent indexes + a packed ancestor matrix."""
        assert _np is not None
        self._np_parent = _np.array(self.parent, dtype=_np.int64)
        rows = [
            _np.frombuffer(
                mask.to_bytes(self.nbytes, "little"), dtype=_np.uint8
            )
            for mask in self.anc_mask
        ]
        self._np_anc = _np.vstack(rows) if rows else _np.zeros(
            (0, self.nbytes), dtype=_np.uint8
        )

    def _bit_indexes_np(self, mask: int):
        """Set-bit indexes of ``mask`` as a numpy array (ascending)."""
        assert _np is not None
        packed = _np.frombuffer(
            mask.to_bytes(self.nbytes, "little"), dtype=_np.uint8
        )
        return _np.flatnonzero(
            _np.unpackbits(packed, bitorder="little", count=self.n)
        )

    # ------------------------------------------------------------------
    # Mask helpers
    # ------------------------------------------------------------------
    def desc_range(self, i: int) -> int:
        """Bits of the *proper* descendants of node ``i`` (contiguous)."""
        return ((1 << i) - 1) ^ ((1 << self.start[i]) - 1)

    def candidates(self, label: str) -> int:
        """Bits of the nodes a pattern node with ``label`` may map to."""
        if label == WILDCARD:
            return self.all_mask
        return self.label_mask.get(label, 0)

    def parents_of_loop(self, mask: int) -> int:
        """Per-set-bit :meth:`parents_of`: the reference implementation."""
        result = 0
        parent = self.parent
        for u in iter_bits(mask):
            p = parent[u]
            if p >= 0:
                result |= 1 << p
        return result

    def ancestors_of_loop(self, mask: int) -> int:
        """Per-set-bit :meth:`ancestors_of`: the reference implementation."""
        result = 0
        anc = self.anc_mask
        for u in iter_bits(mask):
            result |= anc[u]
        return result

    def parents_of(self, mask: int) -> int:
        """Bits of nodes with at least one child in ``mask``."""
        if (
            self.backend == "loop"
            or mask.bit_count() <= SPARSE_POPCOUNT_CUTOFF
        ):
            return self.parents_of_loop(mask)
        if self.backend == "table":
            tbl = self._parent_tbl
            if tbl is None:
                self._build_tables()
                tbl = self._parent_tbl
            result = 0
            for pos, byte in enumerate(mask.to_bytes(self.nbytes, "little")):
                if byte:
                    result |= tbl[pos][byte]
            return result
        if self._np_parent is None:
            self._build_numpy()
        parents = self._np_parent[self._bit_indexes_np(mask)]
        parents = parents[parents >= 0]
        out = _np.zeros(self.nbytes * 8, dtype=_np.uint8)
        out[parents] = 1
        return int.from_bytes(
            _np.packbits(out, bitorder="little").tobytes(), "little"
        )

    def ancestors_of(self, mask: int) -> int:
        """Bits of nodes with at least one *proper* descendant in ``mask``."""
        if (
            self.backend == "loop"
            or mask.bit_count() <= SPARSE_POPCOUNT_CUTOFF
        ):
            return self.ancestors_of_loop(mask)
        if self.backend == "table":
            tbl = self._anc_tbl
            if tbl is None:
                self._build_tables()
                tbl = self._anc_tbl
            result = 0
            for pos, byte in enumerate(mask.to_bytes(self.nbytes, "little")):
                if byte:
                    result |= tbl[pos][byte]
            return result
        if self._np_anc is None:
            self._build_numpy()
        rows = self._np_anc[self._bit_indexes_np(mask)]
        acc = _np.bitwise_or.reduce(rows, axis=0)
        return int.from_bytes(acc.tobytes(), "little")

    def members(self, mask: int) -> set[TNode]:
        """The tree nodes whose bits are set in ``mask``."""
        post = self.post
        return {post[i] for i in iter_bits(mask)}


class Matcher:
    """Precomputed matching tables for one (pattern, tree) pair.

    ``sat(n, v)`` holds iff the subtree of the pattern rooted at ``n``
    embeds into ``t`` with ``n ↦ v`` (ignoring everything above ``n``).
    On top of ``sat``, :meth:`output_images` runs a forward pass along the
    selection path to find all nodes ``o`` such that some (weak) embedding
    maps the output node to ``o``.

    The tables are bitsets over :class:`TreeIndex`; the pattern-side
    precomputation (postorder, selection path, on-path ids) survives a
    :meth:`rematch`, which rebuilds only the tree tables after the
    underlying tree object was mutated.
    """

    #: Bound on ``_partial_cache``.  Selection paths are short, but a
    #: long-lived matcher serving many :meth:`witness` calls against a
    #: mutating pattern set must not accumulate rows forever — same LRU
    #: + eviction-counter treatment as the containment caches.
    PARTIAL_CACHE_LIMIT = 128

    def __init__(
        self,
        pattern: Pattern,
        tree: XMLTree | TNode,
        tree_index: TreeIndex | None = None,
    ):
        self.pattern = pattern
        self.tree_root = tree.root if isinstance(tree, XMLTree) else tree
        self._sat: dict[int, int] = {}
        self._partial_cache: OrderedDict[int, int] = OrderedDict()
        self.partial_cache_evictions = 0
        self.tree_index: TreeIndex | None = None
        if not pattern.is_empty:
            self._pattern_post = pattern_postorder(pattern.root)  # type: ignore[arg-type]
            self._on_path = set(map(id, pattern.selection_path()))
            # A caller-supplied index amortizes the tree-side tables
            # across patterns (view materialization, advisor costing,
            # replay); it must describe this very tree object.
            if tree_index is not None and tree_index.root is self.tree_root:
                self.tree_index = tree_index
            else:
                self.tree_index = TreeIndex(self.tree_root)
            self._compute_sat()

    # ------------------------------------------------------------------
    # Core tables
    # ------------------------------------------------------------------
    def _compute_sat(self) -> None:
        ti = self.tree_index
        assert ti is not None
        sat = self._sat
        for pnode in self._pattern_post:
            cand = ti.candidates(pnode.label)
            for axis, pchild in pnode.edges:
                if not cand:
                    break
                child_sat = sat[id(pchild)]
                if axis is Axis.CHILD:
                    cand &= ti.parents_of(child_sat)
                else:
                    cand &= ti.ancestors_of(child_sat)
            sat[id(pnode)] = cand

    def rematch(self) -> "Matcher":
        """Recompute the tables after the tree was mutated in place.

        Reuses all pattern-side precomputation; only the tree tables and
        ``sat`` rows are rebuilt.  Returns ``self`` for chaining.
        """
        if self.pattern.is_empty:
            return self
        self._sat.clear()
        self._partial_cache.clear()
        self.tree_index = TreeIndex(self.tree_root)
        self._compute_sat()
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def sat(self, pnode: PNode, tnode: TNode) -> bool:
        """Can the pattern subtree at ``pnode`` embed with ``pnode ↦ tnode``?"""
        if self.tree_index is None:
            return False
        i = self.tree_index.index.get(id(tnode))
        if i is None:
            return False
        return bool(self._sat.get(id(pnode), 0) >> i & 1)

    def has_embedding(self) -> bool:
        """Is ``t`` a model of the pattern (root-preserving embedding)?"""
        if self.pattern.is_empty:
            return False
        assert self.tree_index is not None
        root_bit = 1 << (self.tree_index.n - 1)
        return bool(self._sat[id(self.pattern.root)] & root_bit)

    def has_weak_embedding(self) -> bool:
        """Does any weak embedding of the pattern into ``t`` exist?"""
        if self.pattern.is_empty:
            return False
        return bool(self._sat[id(self.pattern.root)])

    def output_images(self, weak: bool = False) -> set[TNode]:
        """All nodes ``o`` reachable as images of the output node.

        ``weak=True`` computes the weak semantics ``P^w(t)``.
        """
        if self.pattern.is_empty:
            return set()
        ti = self.tree_index
        assert ti is not None
        frontier = self._output_mask(weak=weak)
        return ti.members(frontier)

    def _output_mask(self, weak: bool) -> int:
        """Bitset of achievable output images (forward pass)."""
        ti = self.tree_index
        assert ti is not None
        path = self.pattern.selection_path()
        axes = self.pattern.selection_axes()
        partial = [self._partial_sat(node) for node in path]

        root_bit = 1 << (ti.n - 1)
        if weak:
            frontier = partial[0]
        else:
            frontier = partial[0] & root_bit
        for axis, allowed in zip(axes, partial[1:]):
            if not frontier:
                break
            step = 0
            if axis is Axis.CHILD:
                for v in iter_bits(frontier):
                    step |= ti.child_mask[v]
            else:
                for v in iter_bits(frontier):
                    step |= ti.desc_range(v)
            frontier = step & allowed
        return frontier

    def _partial_sat(self, sel_node: PNode) -> int:
        """Tree nodes where ``sel_node`` may sit: label + branch subtrees.

        Like ``sat`` but ignoring the selection-path child (which the
        forward pass handles).  Cached per selection node.
        """
        cache = self._partial_cache
        cached = cache.get(id(sel_node))
        if cached is not None:
            cache.move_to_end(id(sel_node))
            return cached
        ti = self.tree_index
        assert ti is not None
        cand = ti.candidates(sel_node.label)
        for axis, pchild in sel_node.edges:
            if id(pchild) in self._on_path:
                continue
            if not cand:
                break
            child_sat = self._sat[id(pchild)]
            if axis is Axis.CHILD:
                cand &= ti.parents_of(child_sat)
            else:
                cand &= ti.ancestors_of(child_sat)
        cache[id(sel_node)] = cand
        while len(cache) > self.PARTIAL_CACHE_LIMIT:
            cache.popitem(last=False)
            self.partial_cache_evictions += 1
        return cand

    # ------------------------------------------------------------------
    # Witness extraction
    # ------------------------------------------------------------------
    def witness(self, output: TNode | None = None, weak: bool = False):
        """An explicit embedding ``{PNode: TNode}`` or None.

        When ``output`` is given, the embedding is required to map the
        pattern's output node to that tree node.  Otherwise any achievable
        output is chosen.
        """
        if self.pattern.is_empty:
            return None
        ti = self.tree_index
        assert ti is not None
        if output is None:
            images = self._output_mask(weak=weak)
            if not images:
                return None
            out_idx = next(iter_bits(images))
        else:
            maybe = ti.index.get(id(output))
            if maybe is None:
                return None
            out_idx = maybe

        path = self.pattern.selection_path()
        axes = self.pattern.selection_axes()
        partial = [self._partial_sat(node) for node in path]

        # Backward pass: B[i] = selection-node-i images from which the
        # requested output remains reachable along the selection path.
        depth = len(axes)
        backward: list[int] = [0] * (depth + 1)
        backward[depth] = partial[depth] & (1 << out_idx)
        for i in range(depth - 1, -1, -1):
            axis = axes[i]
            prev = 0
            if axis is Axis.CHILD:
                prev = ti.parents_of(backward[i + 1])
            else:
                prev = ti.ancestors_of(backward[i + 1])
            backward[i] = prev & partial[i]
        if not backward[0]:
            return None
        root_bit = 1 << (ti.n - 1)
        if weak:
            anchor = next(iter_bits(backward[0]))
        elif backward[0] & root_bit:
            anchor = ti.n - 1
        else:
            return None

        # Forward walk along the selection path, then greedy branches.
        mapping: dict[PNode, TNode] = {}
        chain = [anchor]
        for i, axis in enumerate(axes):
            current = chain[-1]
            if axis is Axis.CHILD:
                candidates = ti.child_mask[current] & backward[i + 1]
            else:
                candidates = ti.desc_range(current) & backward[i + 1]
            chain.append(next(iter_bits(candidates)))
        for sel_node, image_idx in zip(path, chain):
            mapping[sel_node] = ti.post[image_idx]
            for axis, pchild in sel_node.edges:
                if id(pchild) in self._on_path:
                    continue
                self._extract_branch(axis, pchild, image_idx, mapping)
        return mapping

    def _extract_branch(
        self,
        axis: Axis,
        pnode: PNode,
        above: int,
        mapping: dict[PNode, TNode],
    ) -> None:
        """Greedy extraction of a branch subtree below node index ``above``.

        Guaranteed to succeed because ``above`` passed ``_partial_sat``
        (hence a satisfying placement exists for every branch child).
        Iterative, so deep branches never hit the recursion limit.
        """
        ti = self.tree_index
        assert ti is not None
        stack: list[tuple[Axis, PNode, int]] = [(axis, pnode, above)]
        while stack:
            cur_axis, cur_pnode, cur_above = stack.pop()
            if cur_axis is Axis.CHILD:
                candidates = ti.child_mask[cur_above]
            else:
                candidates = ti.desc_range(cur_above)
            image_idx = next(iter_bits(candidates & self._sat[id(cur_pnode)]))
            mapping[cur_pnode] = ti.post[image_idx]
            for child_axis, pchild in cur_pnode.edges:
                stack.append((child_axis, pchild, image_idx))


# ----------------------------------------------------------------------
# Module-level conveniences
# ----------------------------------------------------------------------

def evaluate(
    pattern: Pattern,
    tree: XMLTree | TNode,
    weak: bool = False,
    index: TreeIndex | None = None,
) -> set[TNode]:
    """Apply ``pattern`` to ``tree``: the paper's ``P(t)`` (or ``P^w(t)``).

    Returns the set of output images as tree nodes (each representing the
    subtree of ``tree`` rooted there).  The empty pattern yields ∅.
    ``index`` may carry a prebuilt :class:`TreeIndex` for ``tree`` to
    amortize the tree tables across many patterns; it is ignored (and
    rebuilt) if it does not describe ``tree``'s root object.
    """
    return Matcher(pattern, tree, tree_index=index).output_images(weak=weak)


def evaluate_forest(
    pattern: Pattern,
    forest: Iterable[XMLTree | TNode],
    weak: bool = False,
) -> set[TNode]:
    """Apply a pattern to a set of trees: ``P(T) = ∪_{t∈T} P(t)``."""
    result: set[TNode] = set()
    for tree in forest:
        result |= evaluate(pattern, tree, weak=weak)
    return result


def is_model(tree: XMLTree | TNode, pattern: Pattern) -> bool:
    """True iff ``tree ∈ Mod(pattern)`` (some embedding exists)."""
    return Matcher(pattern, tree).has_embedding()


def weak_output_images(pattern: Pattern, tree: XMLTree | TNode) -> set[TNode]:
    """``P^w(t)``: output images under weak embeddings."""
    return evaluate(pattern, tree, weak=True)


def find_embedding(
    pattern: Pattern,
    tree: XMLTree | TNode,
    output: TNode | None = None,
    weak: bool = False,
):
    """A concrete (weak) embedding as ``{PNode: TNode}``, or None.

    When ``output`` is given, the embedding must produce that node.
    """
    return Matcher(pattern, tree).witness(output=output, weak=weak)
