"""The packet-switched Network-on-Chip under study (paper section 2).

This package implements, bit- and cycle-accurately, the virtual-channel
wormhole router of Kavaldjiev et al. that the paper uses as its case
study, together with the network fabric around it:

* :mod:`repro.noc.config` — router/network parameterisation,
* :mod:`repro.noc.flit` — flit and link-word encodings,
* :mod:`repro.noc.packet` — packet segmentation and reassembly,
* :mod:`repro.noc.topology` — 2-D torus and mesh fabrics,
* :mod:`repro.noc.routing` — deterministic XY routing tables,
* :mod:`repro.noc.router` — the reference functional router model,
* :mod:`repro.noc.layout` — the Table-1 state-word bit layout,
* :mod:`repro.noc.network` — the golden network-level cycle semantics,
* :mod:`repro.noc.eventlog` — columnar injection/ejection logs,
* :mod:`repro.noc.reservation` — GT virtual-channel reservation,
* :mod:`repro.noc.rtl_router` — the structural RTL description.
"""

from repro.noc.config import NetworkConfig, Port, RouterConfig
from repro.noc.flit import Flit, FlitType, Header
from repro.noc.packet import Packet, PacketClass
from repro.noc.topology import Topology
from repro.noc.routing import RoutingTable
from repro.noc.router import Router, RouterInputs, RouterOutputs, RouterState
from repro.noc.network import Network

__all__ = [
    "Flit",
    "FlitType",
    "Header",
    "Network",
    "NetworkConfig",
    "Packet",
    "PacketClass",
    "Port",
    "Router",
    "RouterConfig",
    "RouterInputs",
    "RouterOutputs",
    "RouterState",
    "RoutingTable",
    "Topology",
]
