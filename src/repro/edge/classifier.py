"""Packet classification at the edge (Section 5.3, Conformity).

"An edge instance applies the first service chain label by parsing and
matching the packet header fields to the chain specification.  It
applies the egress site label using a per-customer routing table that
associates a destination address with an egress site."

Match state is compiled at install time: a prefix is parsed once into a
:class:`Prefix` and filed in a :class:`PrefixIndex`, where a packet (its
address text parsed once) finds it in O(distinct prefix lengths).
"""

from __future__ import annotations

import ipaddress
import itertools
from dataclasses import dataclass, field
from socket import AF_INET, AF_INET6, inet_pton
from typing import Any, Iterator

from repro.core.errors import ReproError
from repro.dataplane.labels import FiveTuple

#: An address as the match structures take it: (IP version, integer value).
Address = tuple[int, int]


class ClassifierError(ReproError):
    """Raised on malformed classifier rules."""


def parse_address(ip: str) -> Address:
    """Parse an address's text form; ValueError if it is not one."""
    try:
        if ":" in ip:
            return 6, int.from_bytes(inet_pton(AF_INET6, ip), "big")
        return 4, int.from_bytes(inet_pton(AF_INET, ip), "big")
    except OSError:
        # Scoped IPv6 is the one valid form the C parser refuses;
        # anything else raises ValueError here.
        address = ipaddress.ip_address(ip)
        return address.version, int(address)


class Prefix:
    """A CIDR prefix parsed once for matching (host bits ignored;
    ValueError if malformed): an address of its ``version`` is inside
    when it equals ``bits`` once shifted right by ``shift``."""

    __slots__ = ("version", "shift", "bits")

    def __init__(self, text: str):
        # Plain ``a.b.c.d/n`` goes through the C parser, as in
        # parse_address; whatever that path does not take (IPv6, a netmask,
        # no length, malformed text) is ipaddress's to accept or refuse.
        address, _, length = text.partition("/") if isinstance(text, str) else ("", "", "")
        if len(length) <= 2 and length.isascii() and length.isdigit() and int(length) <= 32:
            try:
                value = int.from_bytes(inet_pton(AF_INET, address), "big")
            except (OSError, ValueError):
                pass
            else:
                self.version, self.shift = 4, 32 - int(length)
                self.bits = value >> self.shift
                return
        network = ipaddress.ip_network(text, strict=False)
        self.version = network.version
        self.shift = network.max_prefixlen - network.prefixlen
        self.bits = int(network.network_address) >> self.shift

    def contains(self, address: Address) -> bool:
        return address[0] == self.version and address[1] >> self.shift == self.bits


class PrefixIndex:
    """Values filed under prefixes and found by address.

    One hash table per (IP version, prefix length) in use, longest
    first: a lookup shifts the address once per table, so it costs
    O(distinct prefix lengths) however many prefixes are stored.  Values
    under one prefix keep the order they were added in.
    """

    def __init__(self) -> None:
        #: version -> {shift: {prefix bits: values}}, ascending shift.
        self._tables: dict[int, dict[int, dict[int, list]]] = {4: {}, 6: {}}
        #: Counts the calls that filed or dropped a value: an answer
        #: read from this index holds while ``version`` is unchanged.
        self.version = 0

    def __len__(self) -> int:
        return sum(
            len(values)
            for tables in self._tables.values()
            for table in tables.values()
            for values in table.values()
        )

    def add(self, prefix: Prefix, value: Any) -> None:
        tables = self._tables[prefix.version]
        if prefix.shift not in tables:
            tables[prefix.shift] = {}
            self._tables[prefix.version] = tables = dict(sorted(tables.items()))
        tables[prefix.shift].setdefault(prefix.bits, []).append(value)
        self.version += 1

    def remove(self, prefix: Prefix, value: Any = None) -> bool:
        """Remove the first ``value`` filed under ``prefix`` (every value
        when None); True if there was one."""
        tables = self._tables[prefix.version]
        values = tables.get(prefix.shift, {}).get(prefix.bits)
        if not values:
            return False
        if value is None:
            values.clear()
        elif value in values:
            values.remove(value)
        else:
            return False
        if not values:
            del tables[prefix.shift][prefix.bits]
            if not tables[prefix.shift]:
                del tables[prefix.shift]
        self.version += 1
        return True

    def covering(self, address: Address) -> Iterator[list]:
        """The values of each stored prefix containing ``address``,
        longest prefix first."""
        version, value = address
        for shift, table in self._tables[version].items():
            values = table.get(value >> shift)
            if values is not None:
                yield values


@dataclass(frozen=True)
class ClassifierRule:
    """Matches a traffic slice onto a chain label.

    Any field left as None is a wildcard.  Port ranges are inclusive.
    Rules are evaluated in installation order; first match wins (the
    usual longest-prefix nuance is delegated to rule ordering, as with
    VLAN/flow classifiers on real CPE).
    """

    chain_label: int
    src_prefix: str | None = None
    dst_prefix: str | None = None
    protocol: str | None = None
    src_port_range: tuple[int, int] | None = None
    dst_port_range: tuple[int, int] | None = None
    #: The two prefixes, compiled (and so validated) at construction.
    src: Prefix | None = field(init=False, repr=False, compare=False)
    dst: Prefix | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, prefix in (("src", self.src_prefix), ("dst", self.dst_prefix)):
            compiled = None if prefix is None else Prefix(prefix)
            object.__setattr__(self, name, compiled)
        for ports in (self.src_port_range, self.dst_port_range):
            if ports is not None and ports[0] > ports[1]:
                raise ClassifierError(f"invalid port range {ports}")

    def matches(
        self, flow: FiveTuple, src: Address | None = None, dst: Address | None = None
    ) -> bool:
        """``src`` / ``dst`` are ``flow``'s addresses from
        :func:`parse_address`, for a caller that has parsed them already."""
        if self.src is not None and not self.src.contains(
            src or parse_address(flow.src_ip)
        ):
            return False
        if self.dst is not None and not self.dst.contains(
            dst or parse_address(flow.dst_ip)
        ):
            return False
        if self.protocol is not None and flow.protocol != self.protocol:
            return False
        if self.src_port_range is not None and not (
            self.src_port_range[0] <= flow.src_port <= self.src_port_range[1]
        ):
            return False
        if self.dst_port_range is not None and not (
            self.dst_port_range[0] <= flow.dst_port <= self.dst_port_range[1]
        ):
            return False
        return True


#: Where a rule that names no source prefix is filed.
_ANY_SOURCE = (Prefix("0.0.0.0/0"), Prefix("::/0"))


class ClassifierTable:
    """An edge instance's rules; the first installed match wins.

    Rules are indexed by source prefix with their install order, so
    classification evaluates only the rules whose source prefix contains
    the packet's source (all of them, for rules that name none).
    Iterating yields the rules in install order.
    """

    def __init__(self) -> None:
        self._order = itertools.count()
        #: chain label -> [(install order, rule)]
        self._by_label: dict[int, list[tuple[int, ClassifierRule]]] = {}
        #: source prefix -> [(install order, rule)], ascending order
        self.index = PrefixIndex()

    def __iter__(self) -> Iterator[ClassifierRule]:
        entries = sorted(itertools.chain.from_iterable(self._by_label.values()))
        return (rule for _order, rule in entries)

    @staticmethod
    def _sources(rule: ClassifierRule) -> tuple[Prefix, ...]:
        return _ANY_SOURCE if rule.src is None else (rule.src,)

    def install(self, rule: ClassifierRule) -> None:
        entry = (next(self._order), rule)
        self._by_label.setdefault(rule.chain_label, []).append(entry)
        for prefix in self._sources(rule):
            self.index.add(prefix, entry)

    def remove(self, chain_label: int) -> None:
        """Remove every rule that applies ``chain_label``."""
        for entry in self._by_label.pop(chain_label, []):
            for prefix in self._sources(entry[1]):
                self.index.remove(prefix, entry)

    def first_match(
        self, flow: FiveTuple, src: Address, dst: Address | None = None
    ) -> int | None:
        """The chain label of the first installed rule matching ``flow``
        (whose parsed addresses are ``src`` and, if at hand, ``dst``)."""
        best = None
        for entries in self.index.covering(src):
            for entry in entries:
                if best is not None and entry[0] > best[0]:
                    break
                if entry[1].matches(flow, src, dst):
                    best = entry
                    break
        return None if best is None else best[1].chain_label


class EgressTable:
    """Per-customer routing table: destination prefix -> egress site.

    Longest-prefix match, as the VRF-based route redistribution the paper
    references would provide.  A route added twice is held twice, so two
    chains sharing one keep it until both have removed it; of two sites
    under one prefix the first added answers.
    """

    def __init__(self) -> None:
        #: destination prefix -> [egress site], in the order added.
        self.index = PrefixIndex()

    def add_route(self, prefix: str, egress_site: str) -> None:
        self.index.add(Prefix(prefix), egress_site)

    def remove_route(self, prefix: str, egress_site: str | None = None) -> bool:
        """Remove one route to ``egress_site`` under ``prefix`` (every
        route under it when None); True if any was removed."""
        return self.index.remove(Prefix(prefix), egress_site)

    def lookup(self, dst_ip: str) -> str | None:
        return self.longest_match(parse_address(dst_ip))

    def longest_match(self, address: Address) -> str | None:
        for sites in self.index.covering(address):
            return sites[0]
        return None

    def __len__(self) -> int:
        return len(self.index)
