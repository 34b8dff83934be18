"""Settings the CLI's parser needs before any command runs.

``TrainConfig`` holds the training defaults; ``UPSAMPLERS`` and
``DEFAULT_NOISE_SIGMA`` are the corpus choices ``gen`` offers. This module
imports no numpy and no other pixmap module but ``errors``, so building the
parser (``pixmap --help``, ``--version``, a usage error) loads no numerical
code. ``detector`` and ``synthgen`` re-export these names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import PixmapError

if TYPE_CHECKING:
    from .reducers import ReducerSpec

UPSAMPLERS = ("nearest", "bilinear", "zero_insert_conv")
DEFAULT_NOISE_SIGMA = 2.0


def _setting(default, help_text):
    return field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class TrainConfig:
    """Training settings. The only home of their defaults: the CLI's train
    and report flags and the config-file keys are derived from these fields.
    """

    reducer: ReducerSpec
    lr: float = _setting(2e-4, "Adam learning rate")
    beta1: float = _setting(0.9, "Adam beta1")
    beta2: float = _setting(0.999, "Adam beta2")
    weight_decay: float = _setting(2e-4, "decoupled weight decay")
    epochs: int = _setting(30, "training epochs")
    batch_size: int = _setting(32, "minibatch size")
    crop: int = _setting(32, "crop size (random in training, center in eval)")
    seed: int = _setting(1, "root seed")

    def __post_init__(self):
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise PixmapError("bad-config", "lr must be finite and > 0")
        if not math.isfinite(self.weight_decay):
            raise PixmapError("bad-config", "weight_decay must be finite")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise PixmapError("bad-config", "betas must lie in [0, 1)")
        if self.batch_size < 1:
            raise PixmapError("bad-config", "batch_size must be >= 1")
        if self.epochs < 1:
            raise PixmapError("bad-config", "epochs must be >= 1")
        if self.crop < 7:
            raise PixmapError("bad-config", "crop must be >= 7")
