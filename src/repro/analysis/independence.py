"""Algebraic-dependence probability estimation (the paper's Figure 4).

Section 4.1 argues the algebraic-independence clauses can be dropped
because the probability that a random subset of Majorana strings satisfies
``n`` column events ``A_k`` (the product restricted to qubit ``k`` is the
identity) simultaneously is ``≈ 1/4^n``, and full dependence needs all
``N`` columns.  That extrapolation to a ``4^-N`` failure probability is too
pessimistic: for ``2N`` pairwise-anticommuting strings the probability of
full dependence is exactly 0 (see :func:`repro.core.descent.
build_base_formula`), even though single column events stay common.

:func:`estimate_simultaneous_probability` reproduces the figure's
empirical estimate of the column events over sampled optimal encodings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.config import FermihedralConfig
from repro.core.descent import build_base_formula, descend
from repro.encodings.base import MajoranaEncoding
from repro.sat.enumerate import enumerate_models


def column_event_holds(strings, subset: list[int], qubit: int) -> bool:
    """The event ``A_k``: the subset's operator product at ``qubit`` is ``I``."""
    x_bit = 0
    z_bit = 0
    for index in subset:
        string = strings[index]
        x_bit ^= (string.x_mask >> qubit) & 1
        z_bit ^= (string.z_mask >> qubit) & 1
    return x_bit == 0 and z_bit == 0


def sample_optimal_encodings(
    num_modes: int,
    count: int,
    config: FermihedralConfig | None = None,
    max_conflicts_per_model: int | None = None,
) -> list[MajoranaEncoding]:
    """Distinct optimal-weight encodings, via blocking-clause enumeration.

    Finds the optimal Hamiltonian-independent weight with Algorithm 1,
    freezes the bound, and enumerates models that achieve it.
    """
    config = config or FermihedralConfig()
    optimum = descend(num_modes, config=config)
    encoder, indicators = build_base_formula(num_modes, config)
    # The frozen bound must live in the same units descend() optimized —
    # with a connectivity-weighted config, that is the weighted objective.
    selectors = encoder.weight_ladder(
        indicators, optimum.weight, qubit_weights=config.qubit_weights
    )
    encoder.formula.add_unit(selectors[optimum.weight])
    projection = encoder.all_string_variables()
    encodings = []
    for model in enumerate_models(
        encoder.formula,
        projection,
        limit=count,
        max_conflicts_per_model=max_conflicts_per_model,
    ):
        encodings.append(encoder.decode(model))
    return encodings


@dataclass(frozen=True)
class ProbabilityEstimate:
    """Empirical estimate of ``P(n column events hold simultaneously)``."""

    simultaneous_events: int
    probability: float
    trials: int
    prediction: float  # the paper's 1/4^n

    @property
    def ratio_to_prediction(self) -> float:
        if self.prediction == 0:
            return float("inf")
        return self.probability / self.prediction


def estimate_simultaneous_probability(
    encodings: list[MajoranaEncoding],
    num_events: int,
    trials: int = 4000,
    seed: int = 99,
) -> ProbabilityEstimate:
    """Monte-Carlo estimate of ``P(A_{k_1} ∧ ... ∧ A_{k_n})``.

    Each trial draws one sampled encoding, a uniformly random subset of its
    strings of size ≥ 2, and ``num_events`` distinct columns, and checks
    whether every column product is the identity.
    """
    if not encodings:
        raise ValueError("need at least one sampled encoding")
    num_modes = encodings[0].num_modes
    if num_events < 1 or num_events > num_modes:
        raise ValueError("num_events must lie in 1..num_modes")
    rng = random.Random(seed)
    hits = 0
    for _ in range(trials):
        encoding = rng.choice(encodings)
        string_count = len(encoding.strings)
        subset_size = rng.randint(2, string_count)
        subset = rng.sample(range(string_count), subset_size)
        columns = rng.sample(range(num_modes), num_events)
        if all(column_event_holds(encoding.strings, subset, k) for k in columns):
            hits += 1
    return ProbabilityEstimate(
        simultaneous_events=num_events,
        probability=hits / trials,
        trials=trials,
        prediction=0.25**num_events,
    )
