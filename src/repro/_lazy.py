"""Lazy package re-exports (PEP 562), so an import loads only what it uses.

A package ``__init__`` lists which names each submodule provides and binds
the two hooks this module builds::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.obs.history": ("HistoryStore", "RunRecorder"),
    })

``pkg.HistoryStore`` (or ``from pkg import HistoryStore``) imports
``repro.obs.history`` on first access and caches the object on the
package, so later lookups are plain attribute reads.  ``from pkg import *``
resolves every name of the package's ``__all__`` the same way.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` hooks of ``package``.

    ``exports`` maps a submodule's full name to the names it re-exports.
    """
    module = sys.modules[package]
    source = {name: submodule for submodule, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            submodule = source[name]
        except KeyError:
            message = f"module {package!r} has no attribute {name!r}"
            raise AttributeError(message) from None
        value = getattr(importlib.import_module(submodule), name)
        setattr(module, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(module)) | set(source))

    return __getattr__, __dir__
