"""Edge platform services (Sections 2-3).

An *edge service* fronts a type of access network (VPN, enterprise
router, cellular) and is composed of edge instances at sites plus a
centralized edge controller.  Edge instances classify customer packets
onto chains (applying the chain + egress-site labels) and are the only
elements that understand customer addressing; everything downstream
works purely on labels.
"""

from repro.edge.classifier import ClassifierRule, EgressTable
from repro.edge.instance import EdgeInstance
from repro.edge.controller import EdgeController

__all__ = [
    "ClassifierRule",
    "EdgeController",
    "EdgeInstance",
    "EgressTable",
]
