"""Totalizer cardinality encoding (Bailleux & Boutobza 2003).

The weight bound of the descent (Sections 3.6/3.7) is ``sum(literals) <=
b``.  The totalizer builds a balanced merge tree over the literals: each
node carries a unary counter of its subtree's true-literal count,
truncated at ``k + 1`` (counts beyond the bound saturate — their exact
value can never matter).  The encoding is arc-consistent for
at-most-k, so unit propagation is as strong as it can be, and the whole
constraint stays within propositional logic, with no arithmetic theory
solver.

Only the "counts propagate upward" direction is emitted —
``(≥ i in left) ∧ (≥ j in right) → (≥ i+j here)`` — which is exactly what
an upper bound needs: forbidding the root's ``≥ b+1`` output propagates
down to block every way of exceeding ``b``.

:func:`add_totalizer_ladder` bakes in no bound: it returns a selector
literal per bound ``b`` whose assumption enforces ``sum <= b`` — the
incremental-descent idiom.  A fixed bound is the selector added as a
unit clause.
"""

from __future__ import annotations

from typing import Sequence

from repro.sat.cnf import CnfFormula


def _build_tree(
    formula: CnfFormula, literals: Sequence[int], cap: int
) -> list[int]:
    """Merge-tree construction; returns the root's output literals
    ``outputs[j]`` ⇐ "at least ``j + 1`` of ``literals`` are true"."""
    layer: list[list[int]] = [[literal] for literal in literals]
    while len(layer) > 1:
        merged: list[list[int]] = []
        for index in range(0, len(layer) - 1, 2):
            left, right = layer[index], layer[index + 1]
            size = min(len(left) + len(right), cap)
            outputs = [formula.new_variable() for _ in range(size)]
            for i in range(0, min(len(left), cap) + 1):
                for j in range(0, min(len(right), cap - i) + 1):
                    if i + j == 0:
                        continue
                    clause = []
                    if i > 0:
                        clause.append(-left[i - 1])
                    if j > 0:
                        clause.append(-right[j - 1])
                    clause.append(outputs[i + j - 1])
                    formula.add_clause(clause)
            merged.append(outputs)
        if len(layer) % 2:
            merged.append(layer[-1])
        layer = merged
    return layer[0]


def add_totalizer_ladder(
    formula: CnfFormula, literals: Sequence[int], max_bound: int
) -> list[int]:
    """Totalizer counter whose bound is chosen per solve call.

    Builds the merge tree once (saturated at ``max_bound + 1``) and
    returns ``selectors`` of length ``max_bound + 1``: assuming
    ``selectors[b]`` (or adding it as a unit) enforces
    ``sum(literals) <= b``.  Bounds ``b >= len(literals)`` are vacuous
    and share a fresh always-true literal, so callers can index
    ``selectors`` uniformly.
    """
    count = len(literals)
    if max_bound < 0:
        raise ValueError("max_bound must be non-negative")
    width = min(max_bound + 1, count)

    tautology: int | None = None
    if max_bound + 1 > width:
        tautology = formula.new_variable()
        formula.add_unit(tautology)
    if width == 0:
        return [tautology] * (max_bound + 1)

    outputs = _build_tree(formula, literals, cap=width)
    selectors = [-outputs[b] for b in range(width)]
    selectors.extend([tautology] * (max_bound + 1 - width))
    return selectors

