"""The adversary's recording of the wire.

The network logs each transfer's metadata, never its bytes; keeping the
bytes is the adversary's business, and attack code installs a
:class:`Wiretap` to do it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network


class Wiretap:
    """A :data:`~repro.net.network.NetworkTap` that keeps ``(label,
    payload)`` for every send reaching it, in order, and delivers it
    unchanged.  Installed ahead of other taps it records what each send
    put on the wire; an injected duplicate reaches no tap."""

    def __init__(self) -> None:
        self.sends: list[tuple[str, bytes]] = []

    @classmethod
    def install(cls, network: "Network") -> "Wiretap":
        """A new wiretap, installed on ``network`` after its current taps."""
        tap = cls()
        network.add_tap(tap)
        return tap

    def __call__(self, label: str, payload: bytes) -> None:
        self.sends.append((label, payload))

    def captured(self, label: str) -> list[bytes]:
        """Every payload sent under ``label``, in send order."""
        return [payload for sent, payload in self.sends if sent == label]
