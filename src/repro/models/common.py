"""Shared graph-building helpers for the model zoo."""

from __future__ import annotations

import numpy as np

from repro.graph.gir import Graph, Node, Tensor, TensorType
from repro.graph.window import out_size, resolve_padding


class GraphBuilder:
    """Conveniences for building CNN/RNN graphs with synthetic weights."""

    def __init__(self, name: str, seed: int = 0) -> None:
        self.g = Graph(name)
        self.rng = np.random.default_rng(seed)
        self._counter = 0
        self._shapes: dict[str, tuple[int, ...]] = {}

    # ------------------------------------------------------------------

    def _name(self, base: str) -> str:
        self._counter += 1
        return f"{base}_{self._counter}"

    def shape(self, tensor: str) -> tuple[int, ...]:
        return self._shapes[tensor]

    def _act(self, name: str, shape: tuple[int, ...]) -> str:
        self.g.add_tensor(Tensor(name, TensorType(shape)))
        self._shapes[name] = shape
        return name

    def input(self, name: str, shape: tuple[int, ...], dtype="float32") -> str:
        self.g.add_input(name, TensorType(shape, dtype))
        self._shapes[name] = shape
        return name

    def constant(self, base: str, data: np.ndarray) -> str:
        name = self._name(base)
        self.g.add_constant(name, data)
        self._shapes[name] = tuple(np.asarray(data).shape)
        return name

    def _weights(self, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        scale = np.sqrt(2.0 / max(1, fan_in))
        return (self.rng.normal(size=shape) * scale).astype(np.float32)

    # ------------------------------------------------------------------
    # Layers
    # ------------------------------------------------------------------

    def conv(
        self,
        x: str,
        out_channels: int,
        kernel: int | tuple[int, int],
        stride: int = 1,
        padding: str | tuple = "same",
        bias: bool = True,
        activation: str = "none",
        batch_norm: bool = False,
    ) -> str:
        kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
        n, h, w, cin = self.shape(x)
        pad = resolve_padding(padding, (h, w), (kh, kw), (stride, stride))
        oh, ow = out_size((h, w), (kh, kw), (stride, stride), pad)
        weights = self.constant("w", self._weights((kh, kw, cin, out_channels), kh * kw * cin))
        inputs = [x, weights]
        if bias and not batch_norm:
            inputs.append(self.constant("b", self._weights((out_channels,), out_channels)))
        out = self._act(self._name("conv"), (n, oh, ow, out_channels))
        attrs = {"stride": (stride, stride), "padding": pad}
        conv_act = "none" if batch_norm else activation
        if conv_act != "none":
            attrs["activation"] = conv_act
        self.g.add_node(Node(self._name("conv2d"), "conv2d", inputs, [out], attrs))
        if batch_norm:
            out = self.batch_norm(out, activation)
        return out

    def depthwise(
        self,
        x: str,
        kernel: int = 3,
        stride: int = 1,
        activation: str = "none",
    ) -> str:
        """A depthwise conv, then batch norm and ``activation``."""
        n, h, w, c = self.shape(x)
        pad = resolve_padding("same", (h, w), (kernel, kernel), (stride, stride))
        oh, ow = out_size((h, w), (kernel, kernel), (stride, stride), pad)
        weights = self.constant("dw", self._weights((kernel, kernel, c), kernel * kernel))
        out = self._act(self._name("dwconv"), (n, oh, ow, c))
        attrs = {"stride": (stride, stride), "padding": pad}
        self.g.add_node(
            Node(self._name("depthwise"), "depthwise_conv2d", [x, weights], [out], attrs)
        )
        return self.batch_norm(out, activation)

    def batch_norm(self, x: str, activation: str = "none") -> str:
        shape = self.shape(x)
        c = shape[-1]
        mean = self.constant("bn_mean", (self.rng.normal(size=c) * 0.1).astype(np.float32))
        var = self.constant("bn_var", self.rng.uniform(0.5, 1.5, size=c).astype(np.float32))
        gamma = self.constant("bn_gamma", self.rng.uniform(0.8, 1.2, size=c).astype(np.float32))
        beta = self.constant("bn_beta", (self.rng.normal(size=c) * 0.1).astype(np.float32))
        out = self._act(self._name("bn"), shape)
        self.g.add_node(
            Node(self._name("batch_norm"), "batch_norm", [x, mean, var, gamma, beta], [out], {"epsilon": 1e-3})
        )
        if activation != "none":
            out = self.activation(out, activation)
        return out

    def activation(self, x: str, kind: str) -> str:
        out = self._act(self._name(kind), self.shape(x))
        self.g.add_node(Node(self._name(f"{kind}_op"), kind, [x], [out]))
        return out

    def add(self, a: str, b: str, activation: str = "none") -> str:
        out = self._act(self._name("add"), self.shape(a))
        attrs = {"activation": activation} if activation != "none" else {}
        self.g.add_node(Node(self._name("add_op"), "add", [a, b], [out], attrs))
        return out

    def max_pool(self, x: str, ksize: int, stride: int) -> str:
        n, h, w, c = self.shape(x)
        pad = resolve_padding("same", (h, w), (ksize, ksize), (stride, stride))
        oh, ow = out_size((h, w), (ksize, ksize), (stride, stride), pad)
        out = self._act(self._name("max_pool"), (n, oh, ow, c))
        attrs = {"ksize": (ksize, ksize), "stride": (stride, stride), "padding": pad}
        self.g.add_node(Node(self._name("max_pool_op"), "max_pool", [x], [out], attrs))
        return out

    def global_mean(self, x: str) -> str:
        n, h, w, c = self.shape(x)
        out = self._act(self._name("mean"), (n, c))
        self.g.add_node(Node(self._name("mean_op"), "mean", [x], [out], {"axis": (1, 2)}))
        return out

    def fully_connected(self, x: str, out_features: int) -> str:
        shape = self.shape(x)
        weights = self.constant("fw", self._weights((shape[-1], out_features), shape[-1]))
        bias = self.constant("fb", np.zeros(out_features, np.float32))
        out = self._act(self._name("fc"), shape[:-1] + (out_features,))
        self.g.add_node(Node(self._name("fc_op"), "fully_connected", [x, weights, bias], [out]))
        return out

    def reshape(self, x: str, shape: tuple[int, ...]) -> str:
        out = self._act(self._name("reshape"), shape)
        self.g.add_node(Node(self._name("reshape_op"), "reshape", [x], [out], {"shape": shape}))
        return out

    def softmax(self, x: str, axis: int = -1) -> str:
        out = self._act(self._name("softmax"), self.shape(x))
        self.g.add_node(Node(self._name("softmax_op"), "softmax", [x], [out], {"axis": axis}))
        return out

    def concat(self, parts: list[str], axis: int = -1) -> str:
        shapes = [self.shape(p) for p in parts]
        out_shape = list(shapes[0])
        out_shape[axis] = sum(s[axis] for s in shapes)
        out = self._act(self._name("concat"), tuple(out_shape))
        self.g.add_node(Node(self._name("concat_op"), "concat", parts, [out], {"axis": axis}))
        return out

    def pad(self, x: str, padding: tuple) -> str:
        n, h, w, c = self.shape(x)
        (pt, pb), (pl, pr) = padding
        out = self._act(self._name("pad"), (n, h + pt + pb, w + pl + pr, c))
        self.g.add_node(Node(self._name("pad_op"), "pad", [x], [out], {"padding": padding}))
        return out

    # ------------------------------------------------------------------

    def finish(self, outputs: list[str]) -> Graph:
        for name in outputs:
            self.g.mark_output(name)
        self.g.validate()
        return self.g
