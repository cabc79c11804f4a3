"""The one base of the package's errors."""


class ReproError(ValueError):
    """Base of every domain error under :mod:`repro`; a ``ValueError``, so
    ``except ValueError`` still catches it, and the CLI turns one a build
    step raises into a usage error (exit 2)."""
