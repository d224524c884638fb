"""Shared builders for test inputs."""

import numpy as np

from rackit.model import ModelConfig


def small_config(**overrides) -> ModelConfig:
    base = dict(d_model=16, n_layers=2, n_heads=2, d_mlp=32, max_positions=64)
    base.update(overrides)
    return ModelConfig(**base)


def random_gram(rng, dim, n_cols=None):
    """PD-almost-surely Gram from a materialized activation matrix."""
    n = n_cols if n_cols is not None else 4 * dim
    X = rng.standard_normal((dim, n))
    return X @ X.T, X


def random_prompts(rng, count, min_len=3, max_len=8):
    """Byte prompts that avoid the stop byte so rollouts are not cut short."""
    out = []
    for _ in range(count):
        n = int(rng.integers(min_len, max_len + 1))
        out.append([int(t) for t in rng.integers(1, 256, size=n)])
    return out
