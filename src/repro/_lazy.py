"""Lazy package exports (PEP 562).

A package ``__init__`` names each public object and the submodule that
defines it; the submodule is imported the first time the name is read.
A process then loads only the modules it uses: a lock server never
compiles the client, the introspection tools or the cluster package
just because it imported ``repro.service``.

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".detection": ("PeriodicDetector", "detect_once"),
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Tuple

__all__: List[str] = []


def lazy_exports(
    package: str, exports: Dict[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a submodule (relative to ``package``) to the names
    it provides.  A resolved name is cached in the package namespace,
    so each costs one import and later reads are plain lookups.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                "module {!r} has no attribute {!r}".format(package, name)
            )
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
