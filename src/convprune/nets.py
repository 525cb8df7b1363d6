"""Minimal CNN containers and a batch-first, same-padding, stride-1 conv engine.

Everything is float64 and channels-first.  The engine works on batches:
activations are (N, channels, H, W) arrays, and a single (channels, H, W)
example is treated as a batch of one.  Each convolution is lowered to one
GEMM over im2col patches (Chellapilla et al., 2006).  A layer is a K x K
convolution optionally followed by a 1x1 channel-mixing map and an
elementwise activation.  The 1x1 map is what pruning uses to keep a layer's
composite output width fixed while its K x K filter bank shrinks.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ACTIVATIONS = ("identity", "relu")


class DimensionError(ValueError):
    """Shape or channel-count mismatch between tensors and layers."""


def _as_f64(a, name: str) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if out.size == 0:
        raise DimensionError(f"{name} must be non-empty")
    return out


@dataclass
class ConvLayer:
    """One convolutional layer: K x K weights, optional 1x1 map, activation.

    weights has shape (out_channels, in_channels, K, K).  comp, when present,
    has shape (out_channels, width): row j holds the mixing coefficients of
    conv channel j into each of the `width` composite outputs.  A freshly
    built layer either has no comp or a square one; pruning leaves comp with
    fewer rows than columns.
    """

    weights: np.ndarray
    comp: np.ndarray | None = None
    activation: str = "relu"

    def __post_init__(self):
        self.weights = _as_f64(self.weights, "weights")
        if self.weights.ndim != 4:
            raise DimensionError(
                f"weights must be (out, in, K, K), got shape {self.weights.shape}"
            )
        n, m, kh, kw = self.weights.shape
        if kh != kw:
            raise DimensionError(f"kernel must be square, got {kh}x{kw}")
        if self.comp is not None:
            self.comp = _as_f64(self.comp, "comp")
            if self.comp.ndim != 2 or self.comp.shape[0] != n:
                raise DimensionError(
                    f"comp must be ({n}, width), got shape {self.comp.shape}"
                )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.weights.shape[2]

    @property
    def width(self) -> int:
        """Composite output width: comp columns if present, else out_channels."""
        return self.out_channels if self.comp is None else self.comp.shape[1]


@dataclass
class Network:
    """A chain of ConvLayers; layer c's composite width feeds layer c+1."""

    layers: list[ConvLayer] = field(default_factory=list)

    def __post_init__(self):
        if not self.layers:
            raise DimensionError("network needs at least one layer")
        for c in range(len(self.layers) - 1):
            w, nxt = self.layers[c].width, self.layers[c + 1].in_channels
            if w != nxt:
                raise DimensionError(
                    f"layer {c} produces {w} channels but layer {c + 1} expects {nxt}"
                )

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def in_channels(self) -> int:
        return self.layers[0].in_channels

    def with_layer(self, index: int, layer: ConvLayer) -> "Network":
        """A copy of the network with one layer replaced."""
        layers = list(self.layers)
        layers[index] = layer
        return Network(layers)


def apply_activation(kind: str, x: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.maximum(x, 0.0)
    return x


def conv_forward_linear(layer: ConvLayer, x: np.ndarray) -> np.ndarray:
    """Convolution plus 1x1 channel mix, before the activation.

    x is a batch (N, in_channels, H, W) and the output is (N, width, H, W);
    a single example (in_channels, H, W) gives a (width, H, W) output.
    Padding keeps the spatial size ("same", stride 1); the kernel is applied
    without flipping, centered on each pixel (left-biased for even K).
    """
    x = np.asarray(x, dtype=np.float64)
    batch = x if x.ndim != 3 else x[np.newaxis]
    if batch.ndim != 4:
        raise DimensionError(
            f"input must be (N, channels, H, W) or (channels, H, W), got {x.shape}"
        )
    n_ex, m, height, width = batch.shape
    if m != layer.in_channels:
        raise DimensionError(
            f"layer expects {layer.in_channels} input channels, got {m}"
        )
    k = layer.kernel_size
    lo = (k - 1) // 2
    # channels-last padded copy, so each im2col patch row gathers K*K
    # contiguous channel runs
    xp = np.zeros((n_ex, height + k - 1, width + k - 1, m))
    xp[:, lo : lo + height, lo : lo + width] = batch.transpose(0, 2, 3, 1)
    windows = sliding_window_view(xp, (k, k), axis=(1, 2))  # (N, H, W, m, K, K)
    cols = windows.transpose(0, 1, 2, 4, 5, 3).reshape(n_ex * height * width, -1)
    y = cols @ layer.weights.transpose(2, 3, 1, 0).reshape(k * k * m, -1)
    if layer.comp is not None:
        y = y @ layer.comp
    y = y.reshape(n_ex, height, width, layer.width).transpose(0, 3, 1, 2)
    return y if x.ndim != 3 else y[0]


def conv_forward(layer: ConvLayer, x: np.ndarray) -> np.ndarray:
    """Full layer output: convolution, 1x1 mix, then activation."""
    return apply_activation(layer.activation, conv_forward_linear(layer, x))


def forward_all_layers(net: Network, x: np.ndarray) -> list[np.ndarray]:
    """Post-activation outputs [y_1, ..., y_C] of every layer on input x."""
    outs = []
    y = x
    for layer in net.layers:
        y = conv_forward(layer, y)
        outs.append(y)
    return outs


def check_dataset(net: Network, data: np.ndarray) -> np.ndarray:
    """Validate a (N, channels, H, W) dataset against the network input."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 4:
        raise DimensionError(f"dataset must be (N, channels, H, W), got {data.shape}")
    if data.shape[0] == 0:
        raise DimensionError("dataset is empty")
    if data.shape[1] != net.in_channels:
        raise DimensionError(
            f"network expects {net.in_channels} input channels, dataset has {data.shape[1]}"
        )
    return data
