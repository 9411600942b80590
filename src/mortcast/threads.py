"""``MORTCAST_THREADS``, validated in one place. It caps the backtest's
workers and sets the CLI's default BLAS threads; this module imports
nothing heavy, so the CLI reads it before numpy loads."""

import os

from .errors import UsageError


def thread_cap() -> int | None:
    """The positive integer in ``MORTCAST_THREADS``; None when unset or empty."""
    text = os.environ.get("MORTCAST_THREADS", "")
    if text and not (text.strip().isdecimal() and int(text) > 0):
        raise UsageError(f"MORTCAST_THREADS must be a positive integer, got {text!r}")
    return int(text) if text else None
