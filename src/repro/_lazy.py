"""PEP 562 lazy attributes for package ``__init__`` modules.

A package lists the names it re-exports from modules that a one-shot
``compile`` does not need; :func:`lazy_exports` returns the module-level
``__getattr__``/``__dir__`` pair that imports such a module on first
attribute access.  The rule it serves: heavy or optional dependencies
are imported inside functions or through ``__getattr__``, never at
package import time (``tests/test_import_set.py`` enforces it).
"""

import importlib
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the module whose globals are
    ``namespace``.

    ``exports`` maps each lazy name to the module (relative to the
    package, e.g. ``".dataflow"``) that defines it.  A name whose module
    is ``"." + name`` resolves to that submodule itself.  The first
    lookup stores the value in ``namespace``, so later ones are plain
    attribute reads.
    """
    module_name = namespace["__name__"]
    package = namespace["__package__"]

    def __getattr__(name: str) -> Any:
        source = exports.get(name)
        if source is None:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}"
            )
        module = importlib.import_module(source, package)
        value = module if source == "." + name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
