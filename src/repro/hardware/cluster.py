"""A pool of compute nodes with per-node variability.

Models the *haswell* partition: many identical-specification nodes whose
actual power draw differs node to node (Figures 2a/3a).  Jobs allocate
nodes by id or round-robin; every node is reproducibly derived from the
cluster seed, so "run benchmark X on node 7" is a deterministic
experiment.  The seed is the measurement noise seed too: a measurement
on this cluster plans its jobs with ``seed=cluster.seed``.
"""

from __future__ import annotations

from repro import config
from repro.errors import JobError
from repro.hardware.node import ComputeNode
from repro.hardware.topology import NodeTopology


class Cluster:
    """Lazy pool of :class:`~repro.hardware.node.ComputeNode` instances."""

    def __init__(
        self,
        num_nodes: int = 16,
        *,
        seed: int = config.DEFAULT_SEED,
        topology: NodeTopology | None = None,
    ):
        if num_nodes <= 0:
            raise JobError("cluster must have at least one node")
        self.num_nodes = num_nodes
        self.seed = seed
        self._topology = topology
        self._nodes: dict[int, ComputeNode] = {}
        self._next = 0

    @property
    def topology(self) -> NodeTopology | None:
        """The custom topology nodes are built with (``None`` = default)."""
        return self._topology

    def check_node_id(self, node_id: int) -> None:
        """Raise :class:`~repro.errors.JobError` for out-of-range ids."""
        if not 0 <= node_id < self.num_nodes:
            raise JobError(f"no such node: {node_id} (cluster has {self.num_nodes})")

    def node(self, node_id: int) -> ComputeNode:
        """Return (creating on first use) the node with this id."""
        self.check_node_id(node_id)
        if node_id not in self._nodes:
            self._nodes[node_id] = ComputeNode(
                node_id, seed=self.seed, topology=self._topology
            )
        return self._nodes[node_id]

    def fresh_node(self, node_id: int) -> ComputeNode:
        """Return a *fresh* instance of a node (meters reset, same physics).

        Useful when an experiment needs a clean RAPL/HDEEM baseline on the
        same physical node: variability factors are reproducible from
        (node_id, seed), so the physics is unchanged.
        """
        self.check_node_id(node_id)
        node = ComputeNode(node_id, seed=self.seed, topology=self._topology)
        self._nodes[node_id] = node
        return node

    def allocate(self) -> ComputeNode:
        """Round-robin allocation, like a batch scheduler handing out nodes."""
        node = self.node(self._next % self.num_nodes)
        self._next += 1
        return node

    def __len__(self) -> int:
        return self.num_nodes
