"""Exception types shared across the toolkit."""


class PreconditionError(ValueError):
    """A named precondition of an operation failed.

    ``check`` carries the machine-readable name of the failing check so
    callers (and the CLI) can report which gate tripped; for the structural
    checks of ``linalg`` (Hermitian, unitary, ...) it names the checked
    argument or dataclass field.
    """

    def __init__(self, check: str, message: str = ""):
        self.check = check
        super().__init__(f"{check}: {message}" if message else check)


class DegeneratePointerError(PreconditionError):
    """A pointer state had (numerically) zero weight, so it cannot be normalized."""

    def __init__(self, indices):
        self.indices = tuple(int(i) for i in indices)
        super().__init__("degenerate_pointer", f"pointer indices {list(self.indices)}")
