"""Minimal CNN containers and a batch-first, same-padding, stride-1 conv engine.

Everything is float64 and channels-first.  The engine works on batches:
activations are (N, channels, H, W) arrays, and a single (channels, H, W)
example is treated as a batch of one.  Each convolution is lowered to one
GEMM over im2col patches (Chellapilla et al., 2006).  A layer is a K x K
convolution optionally followed by a 1x1 channel-mixing map and an
elementwise activation.  The 1x1 map is what pruning uses to keep a layer's
composite output width fixed while its K x K filter bank shrinks.

Layers are immutable: a layer owns read-only copies of its arrays and builds
its GEMM weight matrix once, so a layer can be shared by threads and kept
across rounds.  Changing a layer means building a new one.  A layer holds
one copy of its weights: for K > 1 the K x K filter bank is a view of the
GEMM matrix, and for K = 1 the GEMM matrix is a view of the filter bank.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("identity", "relu")


class DimensionError(ValueError):
    """Shape or channel-count mismatch between tensors and layers."""


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _owned_f64(a, name: str) -> np.ndarray:
    """A read-only float64 copy that aliases no caller array.

    The copy keeps the source's memory order, so every GEMM on it sees the
    same layout as on the source.
    """
    out = np.array(a, dtype=np.float64, order="K", copy=True)
    if out.size == 0:
        raise DimensionError(f"{name} must be non-empty")
    return _read_only(out)


@dataclass(frozen=True, eq=False)
class ConvLayer:
    """One convolutional layer: K x K weights, optional 1x1 map, activation.

    weights has shape (out_channels, in_channels, K, K).  comp, when present,
    has shape (out_channels, width): row j holds the mixing coefficients of
    conv channel j into each of the `width` composite outputs.  A freshly
    built layer either has no comp or a square one; pruning leaves comp with
    fewer rows than columns.

    The layer is frozen and compares by identity.  gemm_weights is the
    (K*K*in_channels, out_channels) matrix the im2col GEMM multiplies by:
    row (a*K + b)*in_channels + i, column j holds weights[j, i, a, b].
    Both arrays share one buffer.  For K > 1 it is the C-ordered GEMM
    matrix, copied once from the source, and weights is a strided view of
    it; for K = 1 it is the copied source, and gemm_weights is a view.
    """

    weights: np.ndarray
    comp: np.ndarray | None = None
    activation: str = "relu"
    gemm_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        source = np.asarray(self.weights, dtype=np.float64)
        if source.size == 0:
            raise DimensionError("weights must be non-empty")
        if source.ndim != 4:
            raise DimensionError(
                f"weights must be (out, in, K, K), got shape {source.shape}"
            )
        n, m, kh, kw = source.shape
        if kh != kw:
            raise DimensionError(f"kernel must be square, got {kh}x{kw}")
        comp = self.comp
        if comp is not None:
            comp = _owned_f64(comp, "comp")
            if comp.ndim != 2 or comp.shape[0] != n:
                raise DimensionError(
                    f"comp must be ({n}, width), got shape {comp.shape}"
                )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        # built here, not on first use: threads share layers
        if kh == 1:
            # a view of the copied weights, in the layout the GEMM has
            # always seen for K = 1
            weights = _owned_f64(source, "weights")
            gemm = weights.transpose(2, 3, 1, 0).reshape(m, n)
        else:
            # the one copy, a C-ordered (K, K, m, n) buffer: a GEMM on
            # another layout would change the floats' last bits
            buf = np.empty((kh, kw, m, n))
            buf[...] = source.transpose(2, 3, 1, 0)
            buf = _read_only(buf)
            gemm = buf.reshape(kh * kw * m, n)
            weights = buf.transpose(3, 2, 0, 1)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "comp", comp)
        object.__setattr__(self, "gemm_weights", gemm)

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
    # (N, H, W, K, K, m) windows as one view: pixel (h, w) sees xp[h:h+K, w:w+K]
    s_ex, s_row, s_col, s_ch = xp.strides
    windows = np.ndarray(
        (n_ex, height, width, k, k, m),
        np.float64,
        buffer=xp,
        strides=(s_ex, s_row, s_col, s_row, s_col, s_ch),
    )
    windows.flags.writeable = False
    cols = windows.reshape(n_ex * height * width, k * k * m)
    y = cols @ layer.gemm_weights
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
    if 0 in data.shape[2:]:
        raise DimensionError(f"dataset images must be non-empty, got shape {data.shape}")
    if data.shape[1] != net.in_channels:
        raise DimensionError(
            f"network expects {net.in_channels} input channels, dataset has {data.shape[1]}"
        )
    return data
