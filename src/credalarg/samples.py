"""Bundled demo scenario: a group diagnosing a patient.

Eight arguments, four agents. A and B are the competing diagnoses
(measles vs chickenpox), C attacks A, D and F attack B, and the remaining
arguments are observations tied to the diagnoses through causal edges
(fever causes measles, the vaccine rules chickenpox out, and so on).

The scenario ships with the interval values originally reported for it.
Four of those values cannot be derived from the aggregation rules as
defined; ``credalarg bounds --paper-fixtures`` prints the reported and the
computed columns side by side and flags the deviations.
"""

from __future__ import annotations

from .af import ArgumentationFramework, _Value
from .causality import CausalityGraph
from .credal import CredalProfile, ProbabilityInterval
from .formats import FrameworkDocument

_ARGS = ("A", "B", "C", "D", "E", "F", "G", "H")
_ATTACKS = (("A", "B"), ("B", "A"), ("F", "B"), ("D", "B"), ("C", "A"))
_CAUSAL = (("D", "A"), ("F", "A"), ("H", "A"), ("G", "A"),
           ("H", "G"), ("G", "B"), ("C", "B"))
_OPINIONS = {
    "A": (0.2, 0.7, 0.55, 0.75),
    "B": (0.8, 0.25, 0.45, 0.1),
    "C": (0.2, 0.75, 0.4, 0.2),
    "D": (0.75, 0.15, 0.5, 0.8),
    "E": (0.8, 0.65, 0.8, 0.7),
    "F": (0.75, 0.2, 0.55, 0.8),
    "G": (0.7, 0.8, 1.0, 0.9),
    "H": (0.8, 0.9, 1.0, 0.9),
}


def diagnosis_document() -> FrameworkDocument:
    """The full diagnosis scenario as one document."""
    return FrameworkDocument(
        framework=ArgumentationFramework(_ARGS, frozenset(_ATTACKS)),
        profile=CredalProfile.of(_OPINIONS),
        causality=CausalityGraph(_ARGS, frozenset(_CAUSAL)),
        name="diagnosis",
        description="group discussion about a patient diagnosis",
    )


class ReportedFixture(_Value):
    """One analyzed set together with its originally reported interval."""

    __match_args__ = ("label", "members", "reported")

    def __init__(self, label: str, members: tuple[str, ...],
                 reported: ProbabilityInterval):
        self._set(label, members, reported)


REPORTED_FIXTURES = (
    ReportedFixture("semantics", ("C", "D", "E", "F", "G", "H"),
                    ProbabilityInterval(0.0117, 0.0806)),
    ReportedFixture("cf-1", ("A", "D", "E", "F", "G", "H"),
                    ProbabilityInterval(0.13, 0.525)),
    ReportedFixture("cf-2", ("A", "D", "F", "G", "H"),
                    ProbabilityInterval(0.2, 0.75)),
    ReportedFixture("cf-3", ("B", "C", "G", "H"),
                    ProbabilityInterval(0.02, 0.1875)),
    ReportedFixture("cf-4", ("A",),
                    ProbabilityInterval(0.2, 0.75)),
)
