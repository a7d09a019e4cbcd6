"""A module that is loaded on first attribute access."""

import importlib.util
import sys
from types import ModuleType


def lazy_import(name: str) -> ModuleType:
    """The module ``name``, executed only when one of its attributes is first
    read, or the module itself if it is already imported (the "implementing
    lazy imports" recipe of the :mod:`importlib` docs).

    It binds ``np`` in every qfuzzy module that uses numpy, so that an
    ``eval`` without SUPERPOSE, classical or quantum, DEFUZ or not, which
    does only scalar arithmetic, never pays for loading numpy.  The imports
    stay at module level because the benchmark's tracer swaps the names that
    ``cli`` and ``exprparser`` import from the other modules; once the
    program records its own spans (ROADMAP item 2), plain function-local
    imports could replace this.  The tracer wraps no draw and no support,
    so ``evaluate`` imports :mod:`qfuzzy._multinomial` inside its DEFUZ
    route and :mod:`qfuzzy.supports` inside route 4, and no other process
    compiles them.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
