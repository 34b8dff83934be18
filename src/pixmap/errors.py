"""Package-wide error type with a stable machine-readable code."""

from __future__ import annotations


class PixmapError(Exception):
    """Raised for every contract violation the package detects.

    ``code`` is a short kebab-case slug that the CLI prints verbatim, so
    scripts can match on it without parsing prose. ``args`` holds both
    fields, so the error survives pickling, as it must when a ``report``
    worker process raises it.
    """

    def __init__(self, code: str, message: str):
        super().__init__(code, message)
        self.code = code
        self.message = message

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"
