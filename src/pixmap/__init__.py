"""pixmap: pixel-value mapping preprocessing for synthetic-image detection.

The package bundles the mapping tables, the competing semantic-reduction
baselines, frequency diagnostics, a seeded synthetic benchmark generator,
and a small hand-backpropagated detector, all behind the ``pixmap`` CLI.

Each library module below is registered in ``sys.modules`` and bound here
at import, but runs only on its first attribute access
(``importlib.util.LazyLoader``), so a CLI command executes only the modules
it calls. The names they export resolve the same way, through the module
``__getattr__``.
"""

import importlib.util
import sys

__version__ = "0.1.0"

from .errors import PixmapError

_EXPORTS = {
    "image": (
        "CropSpec", "Image8", "ImageF", "crop", "decode_ppm", "encode_ppm", "quantize",
        "read_imagef", "to_float", "write_imagef",
    ),
    "mapping": (
        "MappingTable", "adjacent_gap_profile", "apply_mapping", "build_fixed_table",
        "build_random_tables",
    ),
    "reducers": ("ReducerSpec", "apply_reducer", "highpass", "npr_residual", "patch_shuffle"),
    "rng": ("SplitMix64", "derive_seed"),
    "spectral": (
        "RadialProfile", "Spectrum2D", "azimuthal_profile", "band_ratio", "dft2", "idft2",
        "mean_spectrum", "power_spectrum",
    ),
    "synthgen": (
        "DatasetManifest", "GeneratorSpec", "ManifestEntry", "build_benchmark", "gen_fake",
        "gen_real", "read_manifest_csv", "write_manifest_csv",
    ),
    "detector": (
        "AdamState", "DetectorParams", "EvalReport", "TrainConfig", "adam_step",
        "average_precision", "backward", "evaluate", "forward", "init_params", "load_images",
        "load_params", "loss", "save_params", "train",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def _register_lazily(name: str):
    # cli is never registered this way: `python -m pixmap.cli` needs its real loader.
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _module in _EXPORTS:
    globals()[_module] = _register_lazily(_module)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(["PixmapError", "errors", *_EXPORTS, *_HOME])
