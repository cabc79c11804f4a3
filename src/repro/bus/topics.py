"""Topic grammar of the global message bus.

Topics follow the paper's example format::

    /c1/e3/vnf_G/site_A_instances
     |   |    |        |
     |   |    |        +-- publisher site + element kind
     |   |    +-- VNF service in the chain
     |   +-- egress site label
     +-- chain label

The crucial property is that **the publisher's site is inferred from the
topic itself** (the ``site_X`` component), which is what lets the bus
install a subscription filter at the publisher-site proxy without any
extra rendezvous state.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ReproError


class TopicError(ReproError):
    """Raised on malformed topics."""


#: Element kinds that can publish under a topic.
KINDS = ("instances", "forwarders")


@dataclass(frozen=True)
class Topic:
    """A parsed bus topic.

    ``site`` is the publisher's site.  Site and VNF names must not
    contain ``/``; the site name must not contain ``_`` (it delimits the
    kind suffix, exactly as in the paper's ``site_A_instances`` format).
    """

    chain: str
    egress: str
    vnf: str
    site: str
    kind: str

    def __post_init__(self) -> None:
        for field_name in ("chain", "egress", "vnf", "site", "kind"):
            value = getattr(self, field_name)
            if not value or "/" in value:
                raise TopicError(f"invalid {field_name}: {value!r}")
        if "_" in self.site:
            raise TopicError(f"site name may not contain '_': {self.site!r}")
        if self.kind not in KINDS:
            raise TopicError(f"unknown kind {self.kind!r}; expected one of {KINDS}")

    def __str__(self) -> str:
        return f"/{self.chain}/{self.egress}/vnf_{self.vnf}/site_{self.site}_{self.kind}"

    @property
    def publisher_site(self) -> str:
        """The site whose proxy holds this topic's subscription filters."""
        return self.site

    @classmethod
    def parse(cls, raw: str) -> "Topic":
        """Parse ``/c1/e3/vnf_G/site_A_instances`` back into a Topic."""
        if not raw.startswith("/"):
            raise TopicError(f"topic must start with '/': {raw!r}")
        parts = raw[1:].split("/")
        if len(parts) != 4:
            raise TopicError(f"expected 4 segments, got {len(parts)}: {raw!r}")
        chain, egress, vnf_part, site_part = parts
        if not vnf_part.startswith("vnf_"):
            raise TopicError(f"third segment must be 'vnf_<name>': {raw!r}")
        vnf = vnf_part[len("vnf_"):]
        if not site_part.startswith("site_"):
            raise TopicError(f"fourth segment must be 'site_<site>_<kind>': {raw!r}")
        remainder = site_part[len("site_"):]
        site, sep, kind = remainder.rpartition("_")
        if not sep or not site:
            raise TopicError(f"fourth segment must be 'site_<site>_<kind>': {raw!r}")
        return cls(chain, egress, vnf, site, kind)
