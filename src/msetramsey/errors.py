"""Exception hierarchy shared across the workbench.

Every validation error names the violating witness so that callers
(and the CLI) can print something actionable instead of a bare boolean.
"""


class WorkbenchError(Exception):
    """Base class for all errors raised by this package."""


class InputError(WorkbenchError):
    """Malformed or inconsistent input data (CLI exit code 1)."""


class CapExceeded(WorkbenchError):
    """A configured size cap would be exceeded (CLI exit code 2)."""


class _SearchCapReached(Exception):
    """A bounded search would need more nodes than its cap.

    Raised inside the arrow and monochromatic-subset searches; their
    callers turn it into an inconclusive verdict or a CapExceeded.
    """


class NotAssociative(InputError):
    def __init__(self, i, j, k):
        self.witness = (i, j, k)
        super().__init__(f"associativity fails at ({i}*{j})*{k} != {i}*({j}*{k})")


class BadIdentity(InputError):
    def __init__(self, i):
        self.witness = i
        super().__init__(f"identity law fails at element {i}")


class IdentityAxiomFails(InputError):
    def __init__(self, a):
        self.witness = a
        super().__init__(f"action identity axiom fails at carrier element {a}")


class CompositionFails(InputError):
    def __init__(self, m1, m2, a):
        self.witness = (m1, m2, a)
        super().__init__(
            f"action composition axiom fails at m1={m1}, m2={m2}, a={a}"
        )


class MonoidMismatch(InputError):
    pass


class UnknownSymbol(InputError):
    def __init__(self, symbol):
        self.symbol = symbol
        super().__init__(f"unknown unary symbol {symbol!r}")


class SizeOverflow(CapExceeded):
    def __init__(self, what, size, cap):
        self.what = what
        self.size = size
        self.cap = cap
        super().__init__(f"{what} has size {size}, exceeding cap {cap}")


class EmptySequence(InputError):
    pass


class NotEMCoalgebra(InputError):
    pass


class NotAForest(InputError):
    def __init__(self, cycle):
        self.cycle = cycle
        super().__init__(f"parent map has a non-root cycle {cycle}")


class NotPathShaped(InputError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"structure value at {element!r} is not a root path")


class NotAnEmbedding(InputError):
    pass


class TruncationTooSmall(WorkbenchError):
    def __init__(self, step, detail=""):
        self.step = step
        super().__init__(
            f"finite chain-Ramsey step {step} failed; raise the truncation"
            + (f" ({detail})" if detail else "")
        )


class NoChainWitnessInBudget(WorkbenchError):
    def __init__(self, bound):
        self.bound = bound
        super().__init__(f"no chain witness found up to size {bound}")


class IncompleteFiber(InputError):
    """Ordered degrees that miss an ordering of A or hold another key."""


class ColoringError(InputError):
    """A coloring that does not fit the hom-set it colors."""

