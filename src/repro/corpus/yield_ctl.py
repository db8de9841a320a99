"""Marginal-yield control: a deterministic bandit over grammar regions.

Generated programs are free; verification time is not.  The controller
treats each grammar region (:data:`repro.corpus.grammar.REGIONS`) as a
bandit arm and allocates the next program to the arm with the best
upper confidence bound on *novel verified rules per program*.  Regions
that keep producing settle into proportional share; regions that go
barren — a full trailing window of pulls with zero new rules — are put
on cooldown and only re-probed occasionally, so a saturated grammar
corner stops eating the stream.

Everything is deterministic: UCB with index-order tie-breaking, no
wall-clock in the policy, state advanced only by :meth:`record`.  The
same pull/record sequence replays to the same arm choices forever,
which is what lets the ingest gate assert byte-identical streams.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from repro.corpus.grammar import DEFAULT_REGIONS


@dataclass
class ArmStats:
    """Running tally for one grammar region."""

    pulls: int = 0
    fed: int = 0
    skipped: int = 0
    rules: int = 0
    verify_calls: int = 0
    cooldowns: int = 0
    #: Rules from each of the last ``window`` pulls (barrenness probe).
    recent: deque = field(default_factory=lambda: deque(maxlen=8))
    #: Global step at which the arm becomes eligible again.
    resume_at: int = 0

    @property
    def mean_yield(self) -> float:
        return self.rules / self.pulls if self.pulls else 0.0

    @property
    def barren(self) -> bool:
        window = self.recent.maxlen
        return len(self.recent) == window and not any(self.recent)


class YieldController:
    """UCB1 over grammar regions with barren-region cooldown.

    ``exploration`` scales the confidence radius; ``window`` is how
    many consecutive zero-rule pulls mark a region barren; ``cooldown``
    is how many global steps a barren region sits out before one
    re-probe pull (its window is cleared on resume, so one productive
    probe fully rehabilitates it).
    """

    def __init__(
        self,
        regions: tuple[str, ...] = DEFAULT_REGIONS,
        exploration: float = 1.2,
        window: int = 8,
        cooldown: int = 24,
    ) -> None:
        if not regions:
            raise ValueError("need at least one region")
        self.regions = tuple(regions)
        self.exploration = exploration
        self.cooldown = cooldown
        self.step = 0
        self.arms: dict[str, ArmStats] = {
            name: ArmStats(recent=deque(maxlen=window)) for name in regions
        }

    # -- policy ---------------------------------------------------------------

    def next_region(self) -> str:
        """The region the next generated program should come from."""
        eligible = [
            name for name in self.regions
            if self.arms[name].resume_at <= self.step
        ]
        if not eligible:
            # Everything is cooling; re-probe whichever resumes first
            # (ties break in region order — deterministic).
            eligible = [min(
                self.regions, key=lambda n: (self.arms[n].resume_at,
                                             self.regions.index(n))
            )]
        for name in eligible:  # each arm gets one pull before UCB kicks in
            if self.arms[name].pulls == 0:
                return name
        total = sum(self.arms[name].pulls for name in eligible)
        log_total = math.log(max(total, 2))

        def score(name: str) -> float:
            arm = self.arms[name]
            bonus = self.exploration * math.sqrt(log_total / arm.pulls)
            return arm.mean_yield + bonus

        best = eligible[0]
        best_score = score(best)
        for name in eligible[1:]:
            value = score(name)
            if value > best_score:  # strict: ties keep region order
                best, best_score = name, value
        return best

    # -- feedback -------------------------------------------------------------

    def record(self, region: str, fed: bool, rules: int = 0,
               verify_calls: int = 0) -> None:
        """Account one program's outcome and advance the policy clock."""
        arm = self.arms[region]
        self.step += 1
        arm.pulls += 1
        if fed:
            arm.fed += 1
        else:
            arm.skipped += 1
        arm.rules += rules
        arm.verify_calls += verify_calls
        arm.recent.append(rules)
        if arm.barren and arm.resume_at <= self.step:
            arm.resume_at = self.step + self.cooldown
            arm.cooldowns += 1
            arm.recent.clear()

    # -- reporting ------------------------------------------------------------

    def cooling(self) -> list[str]:
        return [name for name in self.regions
                if self.arms[name].resume_at > self.step]

    def snapshot(self) -> dict:
        """Per-region yield state for stats / the repro-top panel."""
        return {
            name: {
                "pulls": arm.pulls,
                "fed": arm.fed,
                "skipped": arm.skipped,
                "rules": arm.rules,
                "verify_calls": arm.verify_calls,
                "mean_yield": round(arm.mean_yield, 4),
                "cooldowns": arm.cooldowns,
                "cooling": arm.resume_at > self.step,
            }
            for name, arm in self.arms.items()
        }
