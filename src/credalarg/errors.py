"""Exception types shared across the package."""

from collections.abc import Sequence


def _clip(text: str) -> str:
    # at most 40 characters of the text an error echoes, "..." marking a cut
    return text if len(text) <= 40 else text[:40] + "..."


def _echo(value) -> str:
    # the repr of a value an error names, clipped: a str is cut before its
    # repr, anything else after
    return repr(_clip(value)) if isinstance(value, str) else _clip(repr(value))


class CredalArgError(Exception):
    """Base class for every error raised by this package."""


class UnknownArgumentError(CredalArgError):
    """An operation referenced an argument name the structure does not know."""


class ValidationError(CredalArgError):
    """A structural invariant was violated (range, cycle, domain mismatch...)."""


class CausalCycleError(ValidationError):
    """A causal graph has a cycle.

    ``nodes`` walks it in cause -> effect order and ends where it started;
    the message echoes each name cut to 40 characters.
    """

    def __init__(self, nodes: Sequence[str]):
        self.nodes = tuple(nodes)
        super().__init__(
            "causal cycle: " + " -> ".join(map(_clip, self.nodes)))


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
