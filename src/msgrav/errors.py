"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 2, DomainError -> 3.
"""


class MsgravError(Exception):
    pass


class ConfigError(MsgravError):
    """Bad usage: mismatched operands, malformed input files, unknown names."""


class ExprSyntaxError(ConfigError):
    """Expression parse failure; carries the byte offset of the error."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class DomainError(MsgravError):
    """Numeric domain failure at a sample point."""


class DegenerateMetricError(DomainError):
    """Metric determinant vanishes or signature is not (-,+,+,+)."""
