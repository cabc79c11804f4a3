"""The 12-site Switchboard deployment the install and packet workloads run on.

Built from public classes only: the first ``NUM_SITES`` of
``DEFAULT_CITIES`` as backbone nodes and cloud sites, ``VNF_SERVICES``
deployed at every site, one Local Switchboard and one edge instance per
site, the proxy bus on a simulated network, and (for the install
workloads) a ``BusDrivenInstaller`` with the resilience stack and a
three-replica controller store.

Also holds the packet-level correctness checks: an unchecked benchmark
would happily time the drop path, because a mis-wired chain produces a
short trace in ``DataPlane.drops`` and no exception.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.bus.bus import GlobalMessageBus, make_bus
from repro.controller import ChainSpecification, GlobalSwitchboard, LocalSwitchboard
from repro.controller.protocol import BusDrivenInstaller
from repro.controller.replication import ReplicatedStore
from repro.core.model import CloudSite, NetworkModel, VNF
from repro.dataplane import DataPlane
from repro.dataplane.labels import FiveTuple, Packet
from repro.edge import EdgeController, EdgeInstance
from repro.resilience import ResilienceConfig
from repro.simnet.events import Simulator
from repro.simnet.network import SimNetwork
from repro.topology.backbone import build_backbone
from repro.topology.cities import DEFAULT_CITIES
from repro.vnf import VnfService

NUM_SITES = 12
VNF_SERVICES = ("fw", "nat", "ids", "cache")
EDGE_SERVICE = "vpn"
#: Forward demand of every benchmark chain; reverse is a quarter of it.
CHAIN_DEMAND = 1.0
#: The install workloads keep at most this many chains live.
LIVE_CHAINS = 256


@dataclass
class Deployment:
    sites: tuple[str, ...]
    sim: Simulator
    net: SimNetwork
    bus: GlobalMessageBus
    dataplane: DataPlane
    gs: GlobalSwitchboard
    edges: dict[str, EdgeInstance]
    installer: BusDrivenInstaller | None = None
    store: ReplicatedStore | None = None


def build_deployment(seed: int, installer: bool = True) -> Deployment:
    """One fresh deployment.  Site names are the city names (no ``_``:
    the bus ``Topic`` grammar uses it as a delimiter)."""
    backbone = build_backbone(DEFAULT_CITIES[:NUM_SITES])
    sites = tuple(backbone.nodes)
    # Every VNF everywhere, with room for the whole live population at
    # any one site: no install is ever refused for capacity.
    capacity = 4.0 * LIVE_CHAINS * len(VNF_SERVICES) * CHAIN_DEMAND
    vnfs = [VNF(name, 1.0, {s: capacity for s in sites}) for name in VNF_SERVICES]
    model = NetworkModel(
        nodes=sites,
        latency=backbone.latency,
        sites=[CloudSite(s, s, capacity * len(VNF_SERVICES)) for s in sites],
        vnfs=vnfs,
    )
    sim = Simulator()
    net = SimNetwork(sim)
    net.set_fault_rng(random.Random(f"loss-{seed}"))
    bus = make_bus(
        list(sites), wan_delay_s=0.020, uplink_bps=50e6, network=net
    )
    dataplane = DataPlane(random.Random(seed))
    gs = GlobalSwitchboard(model, dataplane)
    for site in sites:
        gs.register_local_switchboard(LocalSwitchboard(site, dataplane))
    for vnf in vnfs:
        gs.register_vnf_service(
            VnfService(vnf.name, vnf.load_per_unit, dict(vnf.site_capacity))
        )
    edge = EdgeController(EDGE_SERVICE)
    edges = {}
    for site in sites:
        edges[site] = EdgeInstance(f"edge.{site}", site, dataplane)
        edge.register_instance(edges[site])
        edge.register_attachment(f"att-{site}", site)
    gs.register_edge_service(edge)
    d = Deployment(sites, sim, net, bus, dataplane, gs, edges)
    if installer:
        d.store = ReplicatedStore([f"ctl.{s}" for s in sites[:3]])
        d.installer = BusDrivenInstaller(
            gs,
            bus,
            gs_site=sites[0],
            edge_controller_site=sites[0],
            vnf_controller_sites={
                name: sites[(i + 1) % len(sites)]
                for i, name in enumerate(VNF_SERVICES)
            },
            resilience=ResilienceConfig(seed=seed),
            store=d.store,
        )
    return d


def chain_spec(index: int, name: str, ingress: str, egress: str, vnfs) -> ChainSpecification:
    """The spec of benchmark chain number ``index``.

    Each chain owns one source /24 (the classifier match) and one
    destination /24 (the egress-table route); the second octet rolls
    over so indices past 255 stay valid addresses.
    """
    hi, lo = divmod(index, 256)
    return ChainSpecification(
        name,
        EDGE_SERVICE,
        f"att-{ingress}",
        f"att-{egress}",
        vnfs,
        forward_demand=CHAIN_DEMAND,
        reverse_demand=CHAIN_DEMAND * 0.25,
        src_prefix=f"10.{hi}.{lo}.0/24",
        dst_prefixes=[f"20.{hi}.{lo}.0/24"],
    )


def flow_of(chain_index: int, flow_index: int) -> FiveTuple:
    """Flow number ``flow_index`` of a chain: inside its source and
    destination prefixes, distinguished by host byte and source port."""
    hi, lo = divmod(chain_index, 256)
    host = 1 + flow_index % 250
    return FiveTuple(
        f"10.{hi}.{lo}.{host}", f"20.{hi}.{lo}.{host}", "tcp",
        1024 + flow_index // 250, 443,
    )


def check_forward(packet: Packet, spec: ChainSpecification, egress_edge: str) -> str | None:
    """Why a forward packet's walk is wrong, or None when it entered at
    an edge, visited one instance of each VNF service in chain order and
    ended at the egress edge instance."""
    trace = packet.trace
    if not trace or trace[-1] != egress_edge:
        return f"ended at {trace[-1] if trace else None!r}, not {egress_edge!r}"
    visited = [hop.split(".", 1)[0] for hop in trace if hop.split(".", 1)[0] in VNF_SERVICES]
    if tuple(visited) != tuple(spec.vnf_services):
        return f"visited {visited}, chain is {list(spec.vnf_services)}"
    return None


def check_reverse(reply: Packet, forward: Packet) -> str | None:
    """Why a reply's walk is wrong, or None when it retraces the forward
    packet's forwarders and VNF instances in reverse order, edge to edge
    (symmetric return).  A forwarder is recorded before the instance it
    fronts in both directions, so the two kinds are compared apart."""
    if (reply.trace[0], reply.trace[-1]) != (forward.trace[-1], forward.trace[0]):
        return f"reply ran {reply.trace[0]}->{reply.trace[-1]}"
    for is_forwarder in (True, False):
        there = [h for h in forward.trace[1:-1] if h.startswith("fwd.") == is_forwarder]
        back = [h for h in reply.trace[1:-1] if h.startswith("fwd.") == is_forwarder]
        if back != there[::-1]:
            return f"reply {reply.trace} does not retrace {forward.trace}"
    return None
