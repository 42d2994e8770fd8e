"""Degree of Fair Concurrency: measured vs. the Theorem 4/5 (and 7/8) bounds.

Definition 5: let professors remain in meetings forever; the system reaches a
quiescent state, and the degree of fair concurrency of the algorithm is the
*minimum* number of meetings held over all such quiescent states.  We
approximate the minimum by sampling many runs (different daemon seeds and
arbitrary initial configurations) and taking the smallest observed value;
Theorem 4 guarantees the true minimum is at least ``min_{MM ∪ AMM}`` and
Theorem 5 that this is at least ``minMM − MaxMin + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.base import CommitteeAlgorithmBase
from repro.hypergraph.matching import MatchingAnalysis
from repro.spec.concurrency import ConcurrencyMeasurement, measure_fair_concurrency


@dataclass(frozen=True)
class FairConcurrencyResult:
    """Measured degree of fair concurrency against the analytical bounds."""

    observed_min: int
    observed_max: int
    samples: Tuple[int, ...]
    theorem4_bound: int
    theorem5_bound: int
    theorem7_bound: int
    theorem8_bound: int

    @property
    def respects_theorem4(self) -> bool:
        """Observed minimum never falls below the Theorem 4 lower bound."""
        return self.observed_min >= self.theorem4_bound

    def as_row(self) -> dict:
        return {
            "observed_min": self.observed_min,
            "observed_max": self.observed_max,
            "thm4_bound": self.theorem4_bound,
            "thm5_bound": self.theorem5_bound,
            "thm7_bound": self.theorem7_bound,
            "thm8_bound": self.theorem8_bound,
        }


def degree_of_fair_concurrency(
    algorithm: CommitteeAlgorithmBase,
    trials: int = 5,
    max_steps: int = 4000,
    seed: int = 0,
    include_arbitrary_starts: bool = True,
    analysis: Optional[MatchingAnalysis] = None,
) -> FairConcurrencyResult:
    """Sample quiescent meeting counts and compare against the paper's bounds."""
    if analysis is None:
        analysis = MatchingAnalysis.of(algorithm.hypergraph)
    samples: List[int] = []
    for trial in range(trials):
        measurement: ConcurrencyMeasurement = measure_fair_concurrency(
            algorithm, max_steps=max_steps, seed=seed + trial, from_arbitrary=False
        )
        samples.append(measurement.degree)
        if include_arbitrary_starts:
            measurement = measure_fair_concurrency(
                algorithm, max_steps=max_steps, seed=seed + 100 + trial, from_arbitrary=True
            )
            samples.append(measurement.degree)
    return FairConcurrencyResult(
        observed_min=min(samples),
        observed_max=max(samples),
        samples=tuple(samples),
        theorem4_bound=analysis.min_mm_union_amm,
        theorem5_bound=analysis.theorem5_bound,
        theorem7_bound=analysis.min_mm_union_amm_prime,
        theorem8_bound=analysis.theorem8_bound,
    )
