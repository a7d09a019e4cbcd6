"""Exception types, how their messages quote a rejected value, and the one
integer rule that every run parameter and layout field is checked by."""

from typing import Any, Callable


class ResourceLimitError(Exception):
    """A register allocation would exceed the configured qubit cap."""


def _brief(value: Any, show: Callable[[Any], str] = repr) -> str:
    """``value`` as a one-line error message quotes it: an array or an object
    by its JSON type and size, anything else as ``show`` prints it, cut to
    32 characters; an integer past int()'s digit limit, which ``show``
    cannot print, as :func:`_json_text` shows it."""
    if isinstance(value, (list, tuple, dict)):
        kind = "object" if isinstance(value, dict) else "array"
        return f"an {kind} of size {len(value)}"
    try:
        text = show(value)
    except ValueError:
        text = _json_text(value)
    return text if len(text) <= 32 else text[:32] + "..."


def _json_text(value: Any) -> str:
    """``value`` as JSON text, or ``<type>`` for what JSON cannot print (an
    arbitrary object, or an integer past int()'s digit limit)."""
    # imported here, on an error path: at module level it would load json
    # while the package compiles its largest modules, raising every
    # command's peak memory by about 0.1 MiB
    import json

    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return f"<{type(value).__name__}>"


def check_int(value: Any, what: str, minimum: int) -> int:
    """``value`` if it is an integer (not a bool, a float or a string) >=
    ``minimum``; otherwise a ValueError that names ``what``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        shown = _brief(value, _json_text)
        raise ValueError(f"{what} must be an integer >= {minimum}, got {shown}")
    return value
