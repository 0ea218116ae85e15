"""Exception types shared across the package."""

from typing import Sequence


class CredalArgError(Exception):
    """Base class for every error raised by this package."""


class UnknownArgumentError(CredalArgError):
    """An operation referenced an argument name the structure does not know."""


class ValidationError(CredalArgError):
    """A structural invariant was violated (range, cycle, domain mismatch...)."""


class CausalCycleError(ValidationError):
    """A causal graph has a cycle.

    ``nodes`` walks it in cause -> effect order and ends where it started.
    """

    def __init__(self, nodes: Sequence[str]):
        self.nodes = tuple(nodes)
        super().__init__("causal cycle: " + " -> ".join(self.nodes))


class CredalSetError(CredalArgError):
    """A credal set is empty or agent cardinalities disagree."""


class CoverageError(CredalArgError):
    """The causal grouping failed to consume an extension exactly once.

    Raised both for members left over by the grouping and for members
    claimed twice (overlapping groups, or a cause that lands in a group
    through an out-of-extension path while also counting as free).
    """


class CapExceededError(CredalArgError):
    """Subset enumeration was refused because the framework is too large."""


class ParseError(CredalArgError):
    """Malformed input document; always carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")
