"""Synthetic CIFAR-like dataset.

The original paper evaluates on CIFAR-10, which is not available in this
offline environment.  This generator produces a drop-in substitute that
preserves what the experiments actually rely on:

* 10-way image classification at 32x32x3;
* graded difficulty — deeper exits should be more accurate than shallow
  ones, so samples must require non-trivial feature extraction;
* enough intra-class variation (shifts, flips, brightness, occlusion and
  additive noise) that a LeNet-class network lands in the paper's accuracy
  regime (~60-75%) rather than saturating.

Each class is defined by a smooth low-frequency *texture prototype* (a
power-law-filtered Gaussian field) plus a class-specific oriented grating.
Samples blend the prototype with per-sample distortions.  The ``noise``
knob trades off difficulty and is calibrated in :mod:`repro.zoo`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset, DatasetSplits
from repro.utils.rng import as_generator, spawn


@dataclass
class SyntheticConfig:
    """Parameters of the synthetic image distribution."""

    image_size: int = 32
    channels: int = 3
    num_classes: int = 10
    noise_std: float = 0.85       # additive Gaussian noise (difficulty knob)
    max_shift: int = 4            # random translation in pixels
    brightness_std: float = 0.25  # per-sample global brightness jitter
    occlusion_prob: float = 0.3   # chance of a random occluding square
    occlusion_size: int = 10
    prototype_smoothness: float = 3.0  # Gaussian-filter sigma for prototypes
    grating_strength: float = 0.8      # strength of the class-oriented grating


def _class_prototypes(cfg: SyntheticConfig, rng) -> np.ndarray:
    """Build one smooth prototype image per class, shape (K, C, H, W)."""
    # SciPy is the training extra: import it only where a dataset is built.
    from scipy import ndimage

    k, c, s = cfg.num_classes, cfg.channels, cfg.image_size
    protos = np.empty((k, c, s, s))
    yy, xx = np.mgrid[0:s, 0:s].astype(np.float64) / s
    for cls in range(k):
        base = rng.normal(size=(c, s, s))
        smooth = np.stack(
            [ndimage.gaussian_filter(ch, cfg.prototype_smoothness, mode="wrap") for ch in base]
        )
        smooth /= np.abs(smooth).max() + 1e-9
        # Class-specific oriented grating gives each class a stable, learnable
        # frequency signature that survives shifts better than raw texture.
        angle = np.pi * cls / k
        freq = 2.0 + 1.5 * (cls % 4)
        grating = np.sin(2 * np.pi * freq * (np.cos(angle) * xx + np.sin(angle) * yy))
        protos[cls] = smooth + cfg.grating_strength * grating[None, :, :]
    return protos


def _distort(img: np.ndarray, cfg: SyntheticConfig, rng) -> np.ndarray:
    """Apply per-sample distortions to one (C, H, W) image."""
    out = img
    if cfg.max_shift > 0:
        dy = int(rng.integers(-cfg.max_shift, cfg.max_shift + 1))
        dx = int(rng.integers(-cfg.max_shift, cfg.max_shift + 1))
        out = np.roll(out, (dy, dx), axis=(1, 2))
    if rng.random() < 0.5:
        out = out[:, :, ::-1]
    if cfg.occlusion_prob > 0 and rng.random() < cfg.occlusion_prob:
        size = cfg.occlusion_size
        top = int(rng.integers(0, cfg.image_size - size + 1))
        left = int(rng.integers(0, cfg.image_size - size + 1))
        out = out.copy()
        out[:, top:top + size, left:left + size] = rng.normal(scale=0.5)
    out = out + rng.normal(0.0, cfg.brightness_std)
    out = out + rng.normal(0.0, cfg.noise_std, size=out.shape)
    return out


def _generate_split(n: int, protos: np.ndarray, cfg: SyntheticConfig, rng) -> Dataset:
    k = cfg.num_classes
    labels = rng.integers(0, k, size=n).astype(np.int64)
    images = np.empty((n, cfg.channels, cfg.image_size, cfg.image_size))
    for i, cls in enumerate(labels):
        images[i] = _distort(protos[cls], cfg, rng)
    # Global standardization (the constants are irrelevant; per-dataset
    # standardization mirrors the usual CIFAR mean/std preprocessing).
    images -= images.mean()
    images /= images.std() + 1e-9
    return Dataset(images, labels)


def make_cifar_like(
    num_train: int = 4000,
    num_val: int = 1000,
    num_test: int = 1000,
    config: SyntheticConfig = None,
    seed=0,
) -> DatasetSplits:
    """Generate train/val/test splits of the synthetic CIFAR-like task.

    The class prototypes are drawn once and shared across splits so the
    train and test distributions match; all randomness derives from
    ``seed``.
    """
    cfg = config or SyntheticConfig()
    proto_rng, train_rng, val_rng, test_rng = spawn(seed, 4)
    protos = _class_prototypes(cfg, as_generator(proto_rng))
    return DatasetSplits(
        train=_generate_split(num_train, protos, cfg, train_rng),
        val=_generate_split(num_val, protos, cfg, val_rng),
        test=_generate_split(num_test, protos, cfg, test_rng),
    )
