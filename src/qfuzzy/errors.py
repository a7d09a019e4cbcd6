"""Exception types, and how their messages quote a rejected value."""

from typing import Any, Callable


class ResourceLimitError(Exception):
    """A register allocation would exceed the configured qubit cap."""


def _brief(value: Any, show: Callable[[Any], str] = repr) -> str:
    """``value`` as a one-line error message quotes it: an array or an object
    by its JSON type and size, anything else as ``show`` prints it, cut to
    32 characters."""
    if isinstance(value, (list, tuple, dict)):
        kind = "object" if isinstance(value, dict) else "array"
        return f"an {kind} of size {len(value)}"
    text = show(value)
    return text if len(text) <= 32 else text[:32] + "..."
