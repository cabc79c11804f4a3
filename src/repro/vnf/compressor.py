"""A WAN-optimizer / compressor network function.

The network model's per-stage demands (``w_cz`` per stage ``z``) exist
precisely because VNFs can change traffic volume mid-chain -- a WAN
optimizer halves the bytes it forwards, a video transcoder shrinks a
stream, a DDoS scrubber drops attack volume.  This VNF is the
behavioural counterpart: it rescales packet sizes in the forward
direction and restores them in reverse (decompression), so benches and
tests can exercise stage-varying demand end to end.
"""

from __future__ import annotations

from repro.core.errors import ReproError
from repro.dataplane.labels import Packet


class CompressorError(ReproError):
    """Raised on invalid compressor configuration."""


class Compressor:
    """Rescales packet sizes by ``ratio`` (forward) and back (reverse).

    ``ratio`` is output/input bytes: 0.5 halves traffic downstream of
    this VNF.  A floor of 40 bytes models uncompressible headers.
    """

    MIN_PACKET_BYTES = 40

    def __init__(self, ratio: float):
        if not 0.0 < ratio <= 1.0:
            raise CompressorError(f"ratio must be in (0, 1]: {ratio}")
        self.ratio = ratio
        self.bytes_in = 0
        self.bytes_out = 0

    def __call__(self, packet: Packet) -> None:
        self.bytes_in += packet.size_bytes
        if packet.direction == "forward":
            packet.size_bytes = max(
                self.MIN_PACKET_BYTES, int(packet.size_bytes * self.ratio)
            )
        else:
            # Reverse traffic is decompressed back toward the client.
            packet.size_bytes = int(packet.size_bytes / self.ratio)
        self.bytes_out += packet.size_bytes

    @property
    def savings(self) -> float:
        """Fraction of bytes removed so far (forward direction biased)."""
        if self.bytes_in == 0:
            return 0.0
        return 1.0 - self.bytes_out / self.bytes_in


def compressed_stage_demands(
    base_forward: float,
    base_reverse: float,
    vnf_ratios: list[float | None],
) -> tuple[list[float], list[float]]:
    """Per-stage demands for a chain containing compressing VNFs.

    ``vnf_ratios`` has one entry per chain VNF: a ratio for a compressor
    at that position, None for volume-preserving VNFs.  Returns the
    ``(forward, reverse)`` per-stage lists for
    :class:`~repro.core.model.Chain`: stage ``z`` carries the volume
    *after* the first ``z - 1`` VNFs in the forward direction, and --
    since reverse traffic is decompressed at the same points -- the
    matching reverse volume.
    """
    forward = [base_forward]
    reverse = [base_reverse]
    for ratio in vnf_ratios:
        factor = 1.0 if ratio is None else ratio
        if not 0.0 < factor <= 1.0:
            raise CompressorError(f"ratio must be in (0, 1]: {factor}")
        forward.append(forward[-1] * factor)
        reverse.append(reverse[-1] * factor)
    return forward, reverse
