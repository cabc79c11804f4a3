"""Installation deadlines and the resilience configuration bundle.

A 2PC installation that loses enough control messages must not hang in
``_pending`` forever with capacity reserved at VNF controllers.  The
:class:`DeadlineManager` arms one cancellable sim-clock timer per
installation; if the install has not completed (or failed) by the
deadline, the installer's expiry callback aborts it unilaterally --
tearing down every participant, rolling back the router, and reporting a
failed timeline to the caller.

:class:`ResilienceConfig` bundles the knobs of the hardening stack so
callers (tests, the chaos runner, the CLI) configure one object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TYPE_CHECKING

from repro.resilience.rpc import RpcConfig, RpcError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.events import EventHandle, Simulator


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the control-plane hardening stack.

    ``install_deadline_s`` bounds how long a single installation may
    stay in flight; it must dominate the RPC give-up horizon for a
    single message (sum of all backoff timeouts) or the deadline aborts
    installs the transport would still have saved.
    """

    rpc: RpcConfig = field(default_factory=RpcConfig)
    #: Wall (sim) time an installation may stay pending before the
    #: coordinator aborts and rolls it back.
    install_deadline_s: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.install_deadline_s <= 0:
            raise RpcError(
                f"non-positive install deadline {self.install_deadline_s}"
            )


class DeadlineManager:
    """Cancellable per-key deadlines on the simulated clock.

    ``arm(key, ...)`` replaces any existing deadline for the key, so
    re-arming extends rather than stacking.  ``disarm`` is idempotent
    and cancels the underlying sim event, which the simulator skips
    without advancing the clock.
    """

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.expired = 0
        self._armed: dict[str, "EventHandle"] = {}

    def arm(
        self,
        key: str,
        deadline_s: float,
        on_expire: Callable[[str], None],
    ) -> None:
        """Fire ``on_expire(key)`` in ``deadline_s`` sim-seconds unless
        disarmed first."""
        self.disarm(key)
        self._armed[key] = self.sim.schedule(
            deadline_s, self._fire, key, on_expire
        )

    def disarm(self, key: str) -> bool:
        """Cancel the deadline for a key; True if one was armed."""
        handle = self._armed.pop(key, None)
        if handle is None:
            return False
        handle.cancel()
        return True

    def active(self) -> list[str]:
        return sorted(self._armed)

    def _fire(self, key: str, on_expire: Callable[[str], None]) -> None:
        if self._armed.pop(key, None) is None:
            return  # disarmed after the event was already popped
        self.expired += 1
        on_expire(key)
