"""Ncore's graph intermediate representation (GIR).

Framework graph formats (TensorFlow, TensorFlow-Lite, PyTorch, MXNet) are
all "graph intermediate representations with subtle differences"; the GCL
imports each into this one IR (section V-B).  The GIR is a flat,
topologically ordered list of nodes over named tensors.

Tensors are NHWC (batch, height, width, channels) unless a node's kernel
chooses an internal Ncore layout at lowering time.  Convolution weights are
HWIO (kh, kw, in_channels, out_channels); depthwise weights are HWC
(kh, kw, channels); fully-connected weights are (in_features, out_features).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.dtypes import NcoreDType, QuantParams


class GraphError(ValueError):
    """Raised on malformed graphs or invalid graph edits."""


# The operator vocabulary.  Ops outside this set are rejected at insert
# time so that passes can rely on a closed vocabulary.
OP_TYPES = frozenset(
    {
        "conv2d",
        "depthwise_conv2d",
        "fully_connected",
        "bias_add",
        "batch_norm",
        "relu",
        "relu6",
        "tanh",
        "sigmoid",
        "softmax",
        "add",
        "mul",
        "concat",
        "pad",
        "max_pool",
        "avg_pool",
        "mean",            # global spatial mean (ResNet head)
        "reshape",
        "slice",
        "quantize",
        "dequantize",
        "embedding",
        "lstm_cell",
        "lstm_step",       # sequence-projected LSTM step (split wx/wh weights)
        "attention",
        "nms",             # SSD non-maximum suppression (x86-only)
        "identity",
    }
)

# Attribute names with graph-wide meaning.
ACTIVATION_ATTR = "activation"  # fused activation: none|relu|relu6|tanh|sigmoid


@dataclass(frozen=True)
class TensorType:
    """Shape and element type of a tensor.

    ``dtype`` is the string ``"float32"``, the string ``"int32"`` (index
    tensors, e.g. token ids), or an :class:`~repro.dtypes.NcoreDType` for
    quantized / reduced types.
    """

    shape: tuple[int, ...]
    dtype: NcoreDType | str = "float32"

    def __post_init__(self) -> None:
        if any(dim < 1 for dim in self.shape):
            raise GraphError(f"tensor dims must be positive, got {self.shape}")

    @property
    def num_elements(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def element_bytes(self) -> int:
        if self.dtype in ("float32", "int32"):
            return 4
        from repro.dtypes import dtype_info

        return dtype_info(self.dtype).bytes_per_element

    @property
    def num_bytes(self) -> int:
        return self.num_elements * self.element_bytes


@dataclass
class Tensor:
    """One value flowing through the graph.

    Constant tensors (weights, biases) carry ``data``; activations do not.
    Quantized tensors carry ``quant`` describing their affine parameters.
    """

    name: str
    type: TensorType
    data: np.ndarray | None = None
    quant: QuantParams | None = None
    # Memoized (weak reference to the array, sha256) of ``data``,
    # maintained by repro.compiler.fingerprint; reassigning ``data``
    # invalidates it.  Pickles leave it out.
    _content_digest: tuple[Any, str] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_content_digest", None)
        return state

    @property
    def is_constant(self) -> bool:
        return self.data is not None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.type.shape

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "const" if self.is_constant else "act"
        return f"Tensor({self.name!r}, {self.shape}, {self.type.dtype}, {kind})"


@dataclass
class Node:
    """One operation."""

    name: str
    op: str
    inputs: list[str]
    outputs: list[str]
    attrs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.op not in OP_TYPES:
            raise GraphError(f"unknown op type {self.op!r}")

    def attr(self, key: str, default: Any = None) -> Any:
        return self.attrs.get(key, default)


class Graph:
    """A topologically ordered dataflow graph over named tensors.

    ``add_node`` rejects a duplicate node name through a name index that
    ``add_node``, ``remove_node`` and ``copy`` keep; a node appended to
    ``nodes`` directly bypasses it, and ``validate`` checks the list
    itself.
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.nodes: list[Node] = []
        self._node_names: set[str] = set()
        self.tensors: dict[str, Tensor] = {}
        self.inputs: list[str] = []
        self.outputs: list[str] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_tensor(self, tensor: Tensor) -> Tensor:
        if tensor.name in self.tensors:
            raise GraphError(f"duplicate tensor name {tensor.name!r}")
        self.tensors[tensor.name] = tensor
        return tensor

    def add_constant(self, name: str, data: np.ndarray, quant: QuantParams | None = None) -> Tensor:
        data = np.asarray(data)
        dtype: NcoreDType | str
        if data.dtype == np.float32 or data.dtype == np.float64:
            data = data.astype(np.float32)
            dtype = "float32"
        elif data.dtype == np.int32:
            dtype = "int32"  # bias vectors and index tables, stored wide
        else:
            mapping = {
                np.dtype(np.int8): NcoreDType.INT8,
                np.dtype(np.uint8): NcoreDType.UINT8,
                np.dtype(np.int16): NcoreDType.INT16,
            }
            if data.dtype not in mapping:
                raise GraphError(f"unsupported constant dtype {data.dtype}")
            dtype = mapping[data.dtype]
        return self.add_tensor(Tensor(name, TensorType(data.shape, dtype), data, quant))

    def add_input(self, name: str, type: TensorType) -> Tensor:
        tensor = self.add_tensor(Tensor(name, type))
        self.inputs.append(name)
        return tensor

    def mark_output(self, name: str) -> None:
        if name not in self.tensors:
            raise GraphError(f"unknown tensor {name!r}")
        if name not in self.outputs:
            self.outputs.append(name)

    def add_node(self, node: Node) -> Node:
        for tensor_name in node.inputs:
            if tensor_name not in self.tensors:
                raise GraphError(f"node {node.name!r} reads unknown tensor {tensor_name!r}")
        for tensor_name in node.outputs:
            if tensor_name not in self.tensors:
                raise GraphError(f"node {node.name!r} writes unknown tensor {tensor_name!r}")
        if node.name in self._node_names:
            raise GraphError(f"duplicate node name {node.name!r}")
        self.nodes.append(node)
        self._node_names.add(node.name)
        return node

    def copy(self) -> "Graph":
        """A structurally independent copy of this graph.

        Node and tensor objects are duplicated (mutable wiring lists and
        attribute dicts included) so optimization passes on the copy can
        never touch the original.  Constant arrays are shared read-only —
        no pass rewrites weight data in place; passes that fold constants
        install *new* arrays on the copy.
        """
        clone = Graph(self.name)
        for tensor_name, tensor in self.tensors.items():
            clone.tensors[tensor_name] = Tensor(
                tensor.name, tensor.type, tensor.data, tensor.quant
            )
        clone.inputs = list(self.inputs)
        clone.outputs = list(self.outputs)
        clone.nodes = [
            Node(node.name, node.op, list(node.inputs), list(node.outputs),
                 dict(node.attrs))
            for node in self.nodes
        ]
        clone._node_names = {node.name for node in clone.nodes}
        return clone

    # The name index is derived state: pickles (compile-cache artifacts)
    # leave it out and a load rebuilds it from ``nodes``.
    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        del state["_node_names"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._node_names = {node.name for node in self.nodes}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def tensor(self, name: str) -> Tensor:
        try:
            return self.tensors[name]
        except KeyError:
            raise GraphError(f"unknown tensor {name!r}") from None

    def producer(self, tensor_name: str) -> Node | None:
        for node in self.nodes:
            if tensor_name in node.outputs:
                return node
        return None

    def consumers(self, tensor_name: str) -> list[Node]:
        return [node for node in self.nodes if tensor_name in node.inputs]

    def find_nodes(self, op: str) -> list[Node]:
        return [node for node in self.nodes if node.op == op]

    def node(self, name: str) -> Node:
        for node in self.nodes:
            if node.name == name:
                return node
        raise GraphError(f"unknown node {name!r}")

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    # ------------------------------------------------------------------
    # Mutation (used by optimization passes)
    # ------------------------------------------------------------------

    def remove_node(self, node: Node) -> None:
        self.nodes.remove(node)
        self._node_names.discard(node.name)

    def rewire_input(self, node: Node, old: str, new: str) -> None:
        node.inputs = [new if name == old else name for name in node.inputs]

    def replace_uses(self, old: str, new: str) -> None:
        """Redirect every consumer of ``old`` (and graph outputs) to ``new``."""
        for node in self.nodes:
            self.rewire_input(node, old, new)
        self.outputs = [new if name == old else name for name in self.outputs]

    def prune_dead_tensors(self) -> int:
        """Drop tensors no node touches and no interface references."""
        live = set(self.inputs) | set(self.outputs)
        for node in self.nodes:
            live.update(node.inputs)
            live.update(node.outputs)
        dead = [name for name in self.tensors if name not in live]
        for name in dead:
            del self.tensors[name]
        return len(dead)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def structure_errors(self) -> Iterator[tuple[str, str, str]]:
        """Each structural violation in walk order as ``(rule id, element,
        message)``: the one statement of these rules, which :meth:`validate`
        and the GIR verifier (``repro.analyze.gir_rules``) both read."""
        seen_nodes: set[str] = set()
        produced = set(self.inputs) | {n for n, t in self.tensors.items() if t.is_constant}
        for node in self.nodes:
            who = f"node {node.name!r}"
            if node.name in seen_nodes:
                yield "gir.duplicate-node", node.name, f"duplicate node name {node.name!r}"
            seen_nodes.add(node.name)
            for name in node.inputs:
                if name not in self.tensors:
                    yield "gir.unknown-tensor", node.name, f"{who} reads unknown tensor {name!r}"
                elif name not in produced:
                    yield ("gir.topology", node.name, f"{who} reads {name!r} before it is "
                           "produced (graph is not topologically ordered)")
            for name in node.outputs:
                if name not in self.tensors:
                    yield "gir.unknown-tensor", node.name, f"{who} writes unknown tensor {name!r}"
                elif name in produced and name not in self.inputs:
                    yield ("gir.multi-producer", name,
                           f"tensor {name!r} is produced more than once (again by {who})")
                produced.add(name)
        for name in self.outputs:
            if name not in produced:
                yield "gir.dangling-output", name, f"graph output {name!r} is never produced"

    def validate(self) -> None:
        """Raise :class:`GraphError` on the first structural violation."""
        for _, _, message in self.structure_errors():
            raise GraphError(message)

    # ------------------------------------------------------------------
    # Statistics (Table V: MACs, weights)
    # ------------------------------------------------------------------

    def count_macs(self) -> int:
        """Multiply-accumulate operations for one inference (batch as built)."""
        total = 0
        for node in self.nodes:
            total += _node_macs(self, node)
        return total

    def count_weights(self) -> int:
        """Total trainable parameters (constants feeding compute ops)."""
        counted: set[str] = set()
        total = 0
        for node in self.nodes:
            if node.op not in (
                "conv2d",
                "depthwise_conv2d",
                "fully_connected",
                "lstm_cell",
                "lstm_step",
                "embedding",
                "batch_norm",
                "bias_add",
                "attention",
            ):
                continue
            for name in node.inputs:
                tensor = self.tensors[name]
                if tensor.is_constant and name not in counted:
                    counted.add(name)
                    total += tensor.type.num_elements
        return total


def _node_macs(graph: Graph, node: Node) -> int:
    """MACs contributed by one node (0 for non-MAC ops)."""
    if node.op == "conv2d":
        out = graph.tensor(node.outputs[0]).shape  # (n, h, w, k)
        weights = graph.tensor(node.inputs[1]).shape  # (kh, kw, c, k)
        n, h, w, k = out
        kh, kw, c, _ = weights
        return n * h * w * k * kh * kw * c
    if node.op == "depthwise_conv2d":
        out = graph.tensor(node.outputs[0]).shape
        weights = graph.tensor(node.inputs[1]).shape  # (kh, kw, c)
        n, h, w, c = out
        kh, kw = weights[0], weights[1]
        return n * h * w * c * kh * kw
    if node.op == "fully_connected":
        weights = graph.tensor(node.inputs[1]).shape  # (in, out)
        batch = int(np.prod(graph.tensor(node.inputs[0]).shape[:-1]))
        return batch * weights[0] * weights[1]
    if node.op == "lstm_cell":
        # 4 gates x (input + recurrent) matmuls per step; weights input is
        # the stacked (in + hidden, 4 * hidden) matrix.
        weights = graph.tensor(node.inputs[1]).shape
        batch = graph.tensor(node.inputs[0]).shape[0]
        return batch * weights[0] * weights[1]
    if node.op == "lstm_step":
        # Same hardware work as lstm_cell with split weights: one step of
        # input projection plus the recurrent matmul, batch x (in + hidden)
        # x 4*hidden.  (The *reference* op projects the whole sequence for
        # one row; the graph walks project it once per walk, and the
        # modelled Ncore counts only the step's row.)
        wx = graph.tensor(node.inputs[1]).shape  # (in, 4 * hidden)
        wh = graph.tensor(node.inputs[2]).shape  # (hidden, 4 * hidden)
        batch = graph.tensor(node.outputs[0]).shape[0]
        return batch * (wx[0] + wh[0]) * wx[1]
    if node.op == "attention":
        # score + context matmuls against the encoder states.
        keys = graph.tensor(node.inputs[1]).shape  # (n, time, hidden)
        n, time, hidden = keys
        return 2 * n * time * hidden
    return 0
