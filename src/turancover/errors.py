"""Shared exception types, and what a write to a closed pipe leaves."""

import os


class InputError(ValueError):
    """Malformed or inconsistent input (bad arity, out-of-range index, ...)."""


class ScaleGuardError(RuntimeError):
    """An exact computation was refused because it exceeds the desk-scale cap."""


class ClaimCheckError(AssertionError):
    """An internal cross-check of a verified theorem failed (should never fire)."""


def to_devnull(stream) -> None:
    """Point `stream` at devnull once its reader closed it, so no later write raises."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)
