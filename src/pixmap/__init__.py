"""pixmap: pixel-value mapping preprocessing for synthetic-image detection.

The package bundles the mapping tables, the competing semantic-reduction
baselines, frequency diagnostics, a seeded synthetic benchmark generator,
and a small hand-backpropagated detector, all behind the ``pixmap`` CLI.

Each library module below is registered in ``sys.modules`` and bound here
at import, but runs only on its first attribute access
(``importlib.util.LazyLoader``), so a CLI command executes only the modules
it calls. Their names are reached through the module, as in
``pixmap.image.crop``.
"""

import importlib.util
import sys

__version__ = "0.1.0"

from .errors import PixmapError

_MODULES = ("image", "mapping", "reducers", "rng", "spectral", "synthgen", "detector")


def _register_lazily(name: str):
    # cli is never registered this way: `python -m pixmap.cli` needs its real loader.
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _module in _MODULES:
    globals()[_module] = _register_lazily(_module)

__all__ = sorted(["PixmapError", "errors", *_MODULES])
