"""The rewriting solver (paper Sections 4 and 5).

Given a query pattern ``P`` and a view pattern ``V``, decide whether an
equivalent rewriting ``R`` (``R ∘ V ≡ P``) exists, and produce one.

The algorithm follows the paper:

1. **Prechecks** (Proposition 3.1): the view may not be deeper than the
   query, and the selection-node labels of ``V`` must agree with those of
   ``P`` above depth ``k`` (with the glb-compatibility condition at depth
   ``k``).  Violations refute existence outright.
2. **Natural candidates** (Section 4): test ``P≥k`` and ``P≥k_r//`` by
   equivalence of their composition with ``V`` against ``P`` — at most
   two (coNP) containment-based tests.
3. **Completeness certificates** (Theorems 4.3, 4.4, 4.9, 4.10, 4.16;
   Corollaries 5.2, 5.7; Theorem 5.4; Propositions 3.5, 5.6; Theorem 5.9
   with Corollary 5.11): syntactic conditions under which the natural
   candidates are complete — if both failed, **no rewriting exists**.
   Certificates are checked on the original instance and on derived
   instances produced by the Section 5 transformations (ignoring
   all-but-last descendant edges; extension + output lifting).
4. **Fallback** (Proposition 3.4): bounded exhaustive search.  Finding a
   rewriting is definitive; exhausting the budget is reported as
   ``UNKNOWN`` — faithfully mirroring the paper, where the exact
   complexity of the unrestricted problem is open.

Every decision carries a trace and test counters used by the paper-claims
benchmarks (C3, C4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..patterns.ast import Axis, Pattern, WILDCARD
from .candidates import natural_candidates
from .composition import compose
from .containment import ContainmentBatch, contains
from .decide import exhaustive_search
from .selection import (
    last_descendant_selection_depth,
    selection_prefix_all_child,
    sub_ge,
)
from .stability import is_in_gnf, is_stable
from .transform import extend, label_descendant, lift_output

__all__ = [
    "RewriteStatus",
    "RewriteResult",
    "RewriteSolver",
    "find_rewriting",
    "precheck_refutation",
]


def precheck_refutation(query: Pattern, view: Pattern) -> str | None:
    """The Proposition 3.1 prechecks: a refutation rule name, or None.

    Purely syntactic — no containment tests.  Shared by the solver's
    step 1 and the view advisor's candidate screening, so the two can
    never drift apart.
    """
    d, k = query.depth, view.depth
    if k > d:
        return "prop-3.1-depth"
    qpath = query.selection_path()
    vpath = view.selection_path()
    # For i < k, the i-node of R ∘ V is the i-node of V; equivalent
    # patterns have identical selection-node labels (Prop 3.1 Part 3).
    for i in range(k):
        if qpath[i].label != vpath[i].label:
            return "prop-3.1-label-mismatch"
    # At depth k the merged node's label is glb(root(R), out(V)).
    target = qpath[k].label
    view_out = vpath[k].label
    if view_out != WILDCARD and target == WILDCARD:
        # §4: "if the label of the k-node of P is ∗ and that of
        # out(V) is not, then a rewriting does not exist".
        return "prop-3.1-wildcard-k-node"
    if view_out != WILDCARD and view_out != target:
        return "prop-3.1-output-label"
    return None


class RewriteStatus(Enum):
    """Outcome of a rewriting decision."""

    FOUND = "found"
    NO_REWRITING = "no-rewriting"
    UNKNOWN = "unknown"


@dataclass
class RewriteResult:
    """A rewriting decision with its derivation.

    Attributes
    ----------
    status:
        FOUND / NO_REWRITING / UNKNOWN.
    rewriting:
        The verified rewriting when status is FOUND.
    rule:
        The decisive rule: a discovery rule (``natural-candidate``,
        ``prop-3.4-search``), a refutation precheck, or the completeness
        certificate that justified NO_REWRITING.
    candidates:
        The natural candidates that were tested.
    equivalence_tests:
        Number of (coNP) equivalence tests performed — the paper's "only
        a few containment tests" claim (benchmark C3).
    fallback_tried:
        Candidates examined by the exhaustive fallback (0 if unused).
    trace:
        Human-readable derivation log.
    """

    status: RewriteStatus
    rewriting: Pattern | None = None
    rule: str | None = None
    candidates: list[Pattern] = field(default_factory=list)
    equivalence_tests: int = 0
    fallback_tried: int = 0
    trace: list[str] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.status is RewriteStatus.FOUND


@dataclass
class _Instance:
    """A (possibly derived) rewriting instance with its provenance."""

    query: Pattern
    view: Pattern
    via: str  # transformation chain, "" for the original instance


class RewriteSolver:
    """Configurable solver for the rewriting-existence problem.

    Parameters
    ----------
    use_fallback:
        Run the Prop 3.4 bounded search when no certificate applies.
    fallback_extra_nodes / fallback_max_candidates:
        Budget of the exhaustive search.
    max_models:
        Canonical-model budget per containment test (None = unbounded).
    derived_depth:
        How many Section 5 transformations may be chained when looking
        for a completeness certificate (2 covers the paper's examples,
        e.g. extension+lifting followed by Corollary 5.7).
    """

    def __init__(
        self,
        use_fallback: bool = True,
        use_certificates: bool = True,
        fallback_extra_nodes: int = 2,
        fallback_max_candidates: int | None = 20000,
        max_models: int | None = None,
        derived_depth: int = 2,
    ):
        self.use_fallback = use_fallback
        self.use_certificates = use_certificates
        self.fallback_extra_nodes = fallback_extra_nodes
        self.fallback_max_candidates = fallback_max_candidates
        self.max_models = max_models
        self.derived_depth = derived_depth

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def solve(self, query: Pattern, view: Pattern) -> RewriteResult:
        """Decide rewriting existence for ``(query, view)``."""
        result = RewriteResult(status=RewriteStatus.UNKNOWN)

        # Degenerate instances.
        if query.is_empty:
            result.status = RewriteStatus.FOUND
            result.rewriting = Pattern.empty()
            result.rule = "empty-query"
            result.trace.append("P = Υ: the empty rewriting works (Υ ∘ V = Υ).")
            return result
        if view.is_empty:
            result.status = RewriteStatus.NO_REWRITING
            result.rule = "empty-view"
            result.trace.append("V = Υ: R ∘ Υ = Υ ≢ P for nonempty P.")
            return result

        d, k = query.depth, view.depth
        result.trace.append(f"depths: d = {d} (query), k = {k} (view).")

        # Step 1: Prop 3.1 prechecks.
        refutation = self._precheck(query, view)
        if refutation is not None:
            result.status = RewriteStatus.NO_REWRITING
            result.rule = refutation
            result.trace.append(f"precheck refutation: {refutation}.")
            return result

        # Step 2: natural candidates (at most two equivalence tests).
        # The ``query ⊑ R ∘ V`` direction goes through a ContainmentBatch
        # so the canonical-model setup for ``query`` is shared across the
        # candidates — lazily, so a first-candidate hit (the common case)
        # still performs a single equivalence test.
        result.candidates = natural_candidates(query, k)
        backward = ContainmentBatch(query, max_models=self.max_models)
        for candidate in result.candidates:
            result.equivalence_tests += 1
            composition = compose(candidate, view)
            if backward.contains(composition) and contains(
                composition, query, max_models=self.max_models
            ):
                result.status = RewriteStatus.FOUND
                result.rewriting = candidate
                result.rule = "natural-candidate"
                result.trace.append(
                    f"candidate {candidate!r} verified: R ∘ V ≡ P."
                )
                return result
        result.trace.append(
            f"natural candidates failed ({len(result.candidates)} tested)."
        )

        # Step 3: completeness certificates.
        if self.use_certificates:
            certificate = self.find_certificate(query, view)
            if certificate is not None:
                result.status = RewriteStatus.NO_REWRITING
                result.rule = certificate
                result.trace.append(
                    f"certificate {certificate}: candidates are complete; "
                    "no rewriting exists."
                )
                return result
            result.trace.append("no completeness certificate applies.")
        else:
            result.trace.append("certificates disabled; skipping to fallback.")

        # Step 4: bounded exhaustive fallback (Prop 3.4).
        if self.use_fallback:
            outcome = exhaustive_search(
                query,
                view,
                max_extra_nodes=self.fallback_extra_nodes,
                max_candidates=self.fallback_max_candidates,
                max_models=self.max_models,
            )
            result.fallback_tried = outcome.tried
            result.equivalence_tests += outcome.tried
            if outcome.rewriting is not None:
                result.status = RewriteStatus.FOUND
                result.rewriting = outcome.rewriting
                result.rule = "prop-3.4-search"
                result.trace.append(
                    f"exhaustive search found a rewriting after "
                    f"{outcome.tried} candidates."
                )
                return result
            result.trace.append(
                f"exhaustive search exhausted its budget "
                f"({outcome.tried} candidates, no rewriting)."
            )
        result.status = RewriteStatus.UNKNOWN
        result.rule = None
        return result

    # ------------------------------------------------------------------
    # Step 1: Prop 3.1 prechecks
    # ------------------------------------------------------------------
    def _precheck(self, query: Pattern, view: Pattern) -> str | None:
        return precheck_refutation(query, view)

    # ------------------------------------------------------------------
    # Step 3: certificates
    # ------------------------------------------------------------------
    def find_certificate(self, query: Pattern, view: Pattern) -> str | None:
        """A completeness certificate for the instance, or None.

        When a certificate is returned, the natural candidates are
        *complete*: if neither is a rewriting, none exists.  Checks the
        base Section 4 conditions on the instance itself, then on
        instances derived via the Section 5 transformations (the ``via``
        chain is encoded in the returned rule name, e.g.
        ``prop-5.6+thm-4.16`` is exactly Corollary 5.7).  Each level of
        derived instances is checked before the next one is derived.
        """
        frontier = [_Instance(query, view, via="")]
        for level in range(self.derived_depth + 1):
            if level:
                frontier = [
                    derived
                    for instance in frontier
                    for derived in self._derive(instance)
                ]
            for instance in frontier:
                rule = self._base_certificate(instance.query, instance.view)
                if rule is not None:
                    return _chain(instance.via, rule)
        return None

    def _base_certificate(self, query: Pattern, view: Pattern) -> str | None:
        """The Section 4 conditions (plus Prop 3.5 and Cor 5.2)."""
        d, k = query.depth, view.depth
        if k > d:  # derived instances are checked defensively
            return None

        if k == d:
            return "k-equals-d"
        if k == 0:
            # root(V) = out(V): Prop 3.5 makes P itself potential.
            return "prop-3.5-view-output-at-root"
        if is_stable(sub_ge(query, k)):
            return "thm-4.3-stable-subquery"
        if selection_prefix_all_child(query, k):
            return "thm-4.4-query-prefix-child-edges"
        view_axes = view.selection_axes()
        if view_axes and view_axes[-1] is Axis.DESCENDANT:
            return "thm-4.9-descendant-into-view-output"
        if all(axis is Axis.CHILD for axis in view_axes):
            return "thm-4.10-view-path-child-edges"
        j = last_descendant_selection_depth(query)
        if j is not None and j <= k and view_axes[j - 1] is Axis.DESCENDANT:
            return "thm-4.16-corresponding-descendant-edges"
        if self._cor_5_2(query, view):
            return "cor-5.2-stable-prefix"
        if is_in_gnf(query):
            return "thm-5.4-gnf"
        return None

    @staticmethod
    def _cor_5_2(query: Pattern, view: Pattern) -> bool:
        """Corollary 5.2: a non-wildcard i-node connected to the k-node by
        child edges only, on the selection path of P or of V."""
        k = view.depth
        q_axes = query.selection_axes()
        v_axes = view.selection_axes()
        q_path = query.selection_path()
        v_path = view.selection_path()
        for i in range(k + 1):
            if q_path[i].label != WILDCARD and all(
                axis is Axis.CHILD for axis in q_axes[i:k]
            ):
                return True
            if v_path[i].label != WILDCARD and all(
                axis is Axis.CHILD for axis in v_axes[i:k]
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # Section 5 derived instances
    # ------------------------------------------------------------------
    def _derive(self, instance: _Instance) -> list[_Instance]:
        """Instances derived by Prop 5.6 and Thm 5.9 + Cor 5.11.

        Soundness of using them for refutation:

        * Prop 5.6 (ignore all-but-last descendant edges of V): if a
          rewriting of (P, V) exists it is a rewriting of the derived
          instance, whose natural candidates coincide with the original
          ones; a certificate on the derived instance therefore transfers
          the refutation.
        * Thm 5.9 / Cor 5.11 (extension + output lifting at a non-wildcard
          j-node of P, k ≤ j ≤ d): rewriting existence and
          natural-candidate success are preserved in both directions.
        """
        derived: list[_Instance] = []
        query, view = instance.query, instance.view
        d, k = query.depth, view.depth

        # Prop 5.6: cut above the deepest descendant selection edge of V.
        i = last_descendant_selection_depth(view)
        if i is not None and i <= min(k, d):
            reduced_q = label_descendant(WILDCARD, sub_ge(query, i))
            reduced_v = label_descendant(WILDCARD, sub_ge(view, i))
            derived.append(
                _Instance(reduced_q, reduced_v, via=_chain(instance.via, "prop-5.6"))
            )

        # Thm 5.9 / Cor 5.11: extension and output lifting, for every
        # admissible j with a non-wildcard j-node of P.
        mu = _fresh_label(query, view)
        q_path = query.selection_path()
        for j in range(k, d + 1):
            if q_path[j].label == WILDCARD:
                continue
            if j == d:
                continue  # lifting to d is the identity instance
            lifted_q = lift_output(extend(query, mu), j)
            extended_v = extend(view, WILDCARD)
            derived.append(
                _Instance(
                    lifted_q,
                    extended_v,
                    via=_chain(instance.via, f"thm-5.9-lift@{j}"),
                )
            )
        return derived


def _chain(via: str, step: str) -> str:
    return step if not via else f"{via}+{step}"


def _fresh_label(*patterns: Pattern) -> str:
    used: set[str] = set()
    for pattern in patterns:
        used |= pattern.labels()
    base = "µ"
    if base not in used:
        return base
    index = 1
    while f"{base}{index}" in used:
        index += 1
    return f"{base}{index}"


def find_rewriting(
    query: Pattern,
    view: Pattern,
    use_fallback: bool = True,
    max_models: int | None = None,
) -> RewriteResult:
    """Decide rewriting existence with default solver settings.

    Convenience wrapper around :class:`RewriteSolver`.
    """
    solver = RewriteSolver(use_fallback=use_fallback, max_models=max_models)
    return solver.solve(query, view)
