"""Circuit (netlist) construction for the built-in simulator.

A :class:`Circuit` collects named nodes and elements, then compiles to
the unknown-vector layout used by the DC and transient solvers: node
voltages first (in declaration order), followed by one branch current
per voltage source.  Compiling also builds the circuit's
:class:`repro.spice.plan.StampPlan`, the vectorized residual/Jacobian
assembly every solver runs.

Node ``"0"`` (aliases ``"gnd"``, ``"GND"``) is ground and carries no
unknown.
"""

from __future__ import annotations

from ..errors import NetlistError
from .elements import (
    GROUND_INDEX,
    Capacitor,
    Resistor,
    Transistor,
    VoltageSource,
)
from .plan import StampPlan

GROUND_NAMES = ("0", "gnd", "GND", "vss!", "ground")


class Circuit:
    """A flat netlist of elements over named nodes."""

    def __init__(self, title="circuit"):
        self.title = title
        self._node_index = {}
        self._node_names = []
        self.elements = []
        self._element_names = set()
        self._vsources = []
        self._compiled = False
        #: The :class:`StampPlan` built by :meth:`compile`.
        self.plan = None

    # -- node bookkeeping ---------------------------------------------------

    def node(self, name):
        """Index for node ``name``, creating it on first use."""
        if name in GROUND_NAMES:
            return GROUND_INDEX
        if name not in self._node_index:
            if self._compiled:
                raise NetlistError(
                    "cannot add node %r after the circuit was compiled" % name
                )
            self._node_index[name] = len(self._node_names)
            self._node_names.append(name)
        return self._node_index[name]

    @property
    def node_names(self):
        """Non-ground node names in unknown order."""
        return tuple(self._node_names)

    @property
    def n_nodes(self):
        return len(self._node_names)

    @property
    def n_unknowns(self):
        return len(self._node_names) + len(self._vsources)

    def index_of(self, name):
        """Unknown index of an existing node (ground -> -1)."""
        if name in GROUND_NAMES:
            return GROUND_INDEX
        try:
            return self._node_index[name]
        except KeyError:
            raise NetlistError("unknown node %r in circuit %r" % (name, self.title))

    # -- element construction -------------------------------------------------

    def _register(self, element):
        if element.name in self._element_names:
            raise NetlistError(
                "duplicate element name %r in circuit %r"
                % (element.name, self.title)
            )
        self._element_names.add(element.name)
        self.elements.append(element)
        self._compiled = False
        return element

    def add_resistor(self, name, a, b, resistance):
        """Resistor of ``resistance`` ohms between nodes ``a`` and ``b``."""
        return self._register(Resistor(name, self.node(a), self.node(b), resistance))

    def add_capacitor(self, name, a, b, capacitance):
        """Capacitor of ``capacitance`` farads between ``a`` and ``b``."""
        return self._register(
            Capacitor(name, self.node(a), self.node(b), capacitance)
        )

    def add_vsource(self, name, plus, minus, value):
        """Voltage source; ``value`` is volts or a callable ``f(t)``."""
        element = VoltageSource(name, self.node(plus), self.node(minus), value)
        self._vsources.append(element)
        return self._register(element)

    def add_fet(self, name, device, gate, drain, source):
        """A FinFET wired (gate, drain, source)."""
        return self._register(
            Transistor(name, device, self.node(gate), self.node(drain),
                       self.node(source))
        )

    def element(self, name):
        """Look up an element by name."""
        for el in self.elements:
            if el.name == name:
                return el
        raise NetlistError("no element named %r in circuit %r" % (name, self.title))

    @property
    def vsources(self):
        return tuple(self._vsources)

    # -- compilation ------------------------------------------------------------

    def compile(self):
        """Freeze the unknown layout; assign branch indices to V sources.

        Also validates that every non-ground node has at least two element
        connections or a voltage-source connection (a heuristic floating
        node check), and builds the stamp plan (which rejects transistors
        holding batched per-sample parameters).
        """
        if not self.elements:
            raise NetlistError("circuit %r has no elements" % self.title)
        for k, source in enumerate(self._vsources):
            source.branch_index = self.n_nodes + k
        touch_count = [0] * self.n_nodes
        driven = [False] * self.n_nodes
        for el in self.elements:
            for idx in el.node_indices():
                if idx != GROUND_INDEX:
                    touch_count[idx] += 1
            if isinstance(el, VoltageSource):
                for idx in (el.plus, el.minus):
                    if idx != GROUND_INDEX:
                        driven[idx] = True
        for idx, count in enumerate(touch_count):
            if count == 0:
                raise NetlistError(
                    "node %r is declared but unconnected" % self._node_names[idx]
                )
            if count == 1 and not driven[idx]:
                raise NetlistError(
                    "node %r has a single connection and no source; "
                    "it would float in DC" % self._node_names[idx]
                )
        self.plan = StampPlan(self)
        self._compiled = True
        return self

    @property
    def compiled(self):
        return self._compiled

    def __repr__(self):
        return "Circuit(%r, %d nodes, %d elements)" % (
            self.title,
            self.n_nodes,
            len(self.elements),
        )
