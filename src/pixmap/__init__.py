"""pixmap: pixel-value mapping preprocessing for synthetic-image detection.

The package bundles the mapping tables, the competing semantic-reduction
baselines, frequency diagnostics, a seeded synthetic benchmark generator,
and a small hand-backpropagated detector, all behind the ``pixmap`` CLI.
"""

__version__ = "0.1.0"

from .errors import PixmapError
from .image import (
    CropSpec,
    Image8,
    ImageF,
    crop,
    decode_ppm,
    encode_ppm,
    quantize,
    read_imagef,
    to_float,
    write_imagef,
)
from .mapping import (
    MappingTable,
    adjacent_gap_profile,
    apply_mapping,
    build_fixed_table,
    build_random_tables,
)
from .reducers import ReducerSpec, apply_reducer, highpass, npr_residual, patch_shuffle
from .rng import SplitMix64, derive_seed
from .spectral import (
    RadialProfile,
    Spectrum2D,
    azimuthal_profile,
    band_ratio,
    dft2,
    idft2,
    mean_spectrum,
    power_spectrum,
)
from .synthgen import (
    DatasetManifest,
    GeneratorSpec,
    ManifestEntry,
    build_benchmark,
    gen_fake,
    gen_real,
    read_manifest_csv,
    write_manifest_csv,
)
from .detector import (
    AdamState,
    DetectorParams,
    EvalReport,
    TrainConfig,
    adam_step,
    average_precision,
    backward,
    evaluate,
    forward,
    init_params,
    load_images,
    load_params,
    loss,
    save_params,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
