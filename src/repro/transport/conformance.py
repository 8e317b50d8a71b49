"""Cross-backend conformance: the same golden scenarios on DES and UDP.

The transport backend's correctness claim is that it changes the
*substrate*, not the *protocol*: the identical sender/receiver state
machines run over real sockets instead of virtual time.  This module
states that claim as an executable check — a set of **golden
scenarios** (small, real-time-friendly operating points) is run on both
backends with the same seed, payload set, and monitor suite, and the
outcomes are compared on:

- the **delivered-payload digest** — SHA-256 over the destination
  resequencer's in-order release stream, which must equal the digest of
  the offered payloads (zero loss, restored order) on both backends;
- the **monitor verdict** — the invariant suite's ok flag and the set
  of violated invariant names must match (normally both clean).

Event *timing* is not compared: wall time and virtual time schedule
differently by construction.  What must agree is what the paper's
guarantees talk about — the delivered byte stream and the invariants.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from ..netlayer.packet import Datagram
from ..netlayer.resequencer import Resequencer
from ..workloads.scenarios import LinkScenario, build_simulation

__all__ = [
    "BackendReport",
    "ConformanceReport",
    "GOLDEN_SCENARIOS",
    "golden_scenario",
    "make_payload",
    "payload_digest",
    "payload_index",
    "resequence_digest",
    "run_conformance",
    "run_des_reference",
]

_INDEX_DIGITS = 8
_HEADER_LEN = _INDEX_DIGITS + 1  # "00000042|"

# Body byte i of payload `index` is (131*index + 7 + 29*i) mod 256.  29 is
# invertible mod 256, so every body is a slice of the one sequence
# 29*j mod 256, entered at j = (131*index + 7) * 29^-1: one copy, no
# per-byte loop where a live session builds its payloads.
_FILL = bytes((29 * j) & 0xFF for j in range(256))
_INVERSE_29 = pow(29, -1, 256)


def make_payload(index: int, size: int = 256) -> bytes:
    """Deterministic payload *index*: parseable header + pseudo-random fill.

    The header carries the end-to-end sequence number in clear ASCII so
    the destination can resequence; the filler is a cheap index-keyed
    byte pattern so digests catch any payload mixup, truncation, or
    corruption — not just reordering.
    """
    if size < _HEADER_LEN:
        raise ValueError(f"payload size must be >= {_HEADER_LEN}, got {size}")
    header = b"%0*d|" % (_INDEX_DIGITS, index)
    start = ((index * 131 + 7) * _INVERSE_29) & 0xFF
    need = start + size - _HEADER_LEN
    return header + (_FILL * (need // 256 + 1))[start:need]


def payload_index(data: Any) -> Optional[int]:
    """The end-to-end sequence number of a :func:`make_payload` payload,
    or ``None`` for anything that does not parse."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        return None
    data = bytes(data)
    if len(data) < _HEADER_LEN or data[_INDEX_DIGITS:_HEADER_LEN] != b"|":
        return None
    head = data[:_INDEX_DIGITS]
    if not head.isdigit():
        return None
    return int(head)


def payload_digest(payloads: Iterable[bytes]) -> str:
    """SHA-256 over the concatenated payload stream (order-sensitive)."""
    digest = hashlib.sha256()
    for data in payloads:
        digest.update(data)
    return digest.hexdigest()


def resequence_digest(delivered: Iterable[Any]) -> tuple[str, int]:
    """Destination-resequence *delivered* payloads; ``(digest, dups)``.

    Mirrors the paper's destination-node responsibility: the DLC stream
    may arrive out of order (and, under enforced recovery, duplicated);
    the digest is over the in-order deduplicated release stream.
    """
    resequencer = Resequencer()
    released: list[bytes] = []
    for data in delivered:
        index = payload_index(data)
        if index is None:
            continue
        datagram = Datagram(source="flow", destination="dest",
                            sequence=index, created_at=0.0, data=bytes(data))
        released.extend(out.data for out in resequencer.push(datagram))
    return payload_digest(released), resequencer.duplicates_dropped


# -- golden scenarios -------------------------------------------------------

# Real-time-friendly operating points: 2 Mbps keeps serialization at
# ~1 ms/frame (far above scheduler jitter), 5,000 km keeps the paper's
# propagation regime (16.7 ms one way), and a 20 ms checkpoint interval
# keeps recovery rounds short enough that a lossy session still
# finishes in a couple of wall seconds.
GOLDEN_SCENARIOS: dict[str, LinkScenario] = {
    "clean": LinkScenario(
        name="golden-clean", bit_rate=2e6, distance_km=5000.0,
        iframe_ber=0.0, cframe_ber=0.0,
        iframe_payload_bits=2048, iframe_overhead_bits=80, cframe_bits=96,
        checkpoint_interval=0.020, cumulation_depth=3,
        processing_time=10e-6,
    ),
    # ~8% I-frame error rate: every session exercises NAK recovery and
    # renumbered retransmission; the control channel stays near-perfect
    # like the paper's FEC-protected checkpoints.
    "lossy": LinkScenario(
        name="golden-lossy", bit_rate=2e6, distance_km=5000.0,
        iframe_ber=4e-5, cframe_ber=1e-6,
        iframe_payload_bits=2048, iframe_overhead_bits=80, cframe_bits=96,
        checkpoint_interval=0.020, cumulation_depth=3,
        processing_time=10e-6,
    ),
}


def golden_scenario(name: str) -> LinkScenario:
    """Look up a golden conformance scenario by short name."""
    try:
        return GOLDEN_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown golden scenario {name!r}; "
            f"available: {sorted(GOLDEN_SCENARIOS)}"
        ) from None


# -- backend runs -----------------------------------------------------------


@dataclass(frozen=True)
class BackendReport:
    """One backend's outcome on one golden scenario."""

    backend: str
    completed: bool
    delivered_unique: int
    duplicates: int
    digest: str
    monitors_ok: bool
    violation_names: tuple[str, ...]
    retransmissions: Optional[int] = None

    @property
    def verdict(self) -> tuple[bool, tuple[str, ...]]:
        """The comparable monitor verdict: (ok, violated invariants)."""
        return (self.monitors_ok, self.violation_names)


def _violation_names(suite: Any) -> tuple[str, ...]:
    if suite is None:
        return ()
    return tuple(sorted({v.invariant for v in suite.violations}))


def run_des_reference(
    scenario: LinkScenario,
    protocol: str = "lams",
    seed: int = 0,
    *,
    n_frames: int = 48,
    payload_bytes: int = 256,
    overrides: Optional[dict] = None,
    max_virtual_time: float = 30.0,
) -> BackendReport:
    """The golden transfer on the DES backend, invariants attached.

    Offers the same :func:`make_payload` payload set the UDP session
    uses, runs (virtual time) until the destination has every payload
    and the sender's ledger has drained, then finalizes the monitors.
    """
    setup = build_simulation(
        scenario, protocol, seed=seed, overrides=overrides,
        run_with_invariants=True,
    )
    payloads = [make_payload(i, payload_bytes) for i in range(n_frames)]
    setup.endpoint_a.accept_many(payloads)
    seen: set[int] = set()
    cursor = 0
    completed = False
    while setup.sim.now < max_virtual_time:
        setup.run(until=setup.sim.now + 0.05)
        while cursor < len(setup.delivered):
            index = payload_index(setup.delivered[cursor])
            if index is not None:
                seen.add(index)
            cursor += 1
        if len(seen) >= n_frames:
            completed = True
            break
    if completed:
        # Quiesce: drain the sender's zero-loss ledger (checkpoint
        # releases for the last frames are still in flight).
        sender = getattr(setup.endpoint_a, "sender", None)
        if sender is not None and hasattr(sender, "held_payloads"):
            config = sender.config
            budget = 2.0 * config.resolving_period(scenario.round_trip_time)
            target = setup.sim.now + budget + scenario.round_trip_time
            while setup.sim.now < target and sender.held_payloads():
                setup.run(until=setup.sim.now + 0.01)
    setup.endpoint_a.stop()
    setup.endpoint_b.stop()
    suite = setup.finalize_monitors()
    digest, duplicates = resequence_digest(list(setup.delivered))
    sender = getattr(setup.endpoint_a, "sender", None)
    return BackendReport(
        backend="des",
        completed=completed,
        delivered_unique=len(seen),
        duplicates=duplicates,
        digest=digest,
        monitors_ok=suite.ok if suite is not None else True,
        violation_names=_violation_names(suite),
        retransmissions=getattr(sender, "retransmissions", None),
    )


def _udp_report(result: Any) -> BackendReport:
    suite = result.monitors
    return BackendReport(
        backend="udp",
        completed=result.completed,
        delivered_unique=result.delivered_unique,
        duplicates=result.duplicates,
        digest=result.digest,
        monitors_ok=suite.ok if suite is not None else True,
        violation_names=_violation_names(suite),
        retransmissions=result.stats.get("retransmissions"),
    )


@dataclass(frozen=True)
class ConformanceReport:
    """DES-vs-UDP comparison for one golden scenario."""

    scenario: str
    seed: int
    n_frames: int
    expected_digest: str
    des: BackendReport
    udp: BackendReport

    @property
    def matches(self) -> bool:
        """Both backends complete, byte-exact, with identical verdicts."""
        return not self.mismatches()

    def mismatches(self) -> list[str]:
        """Human-readable list of every way the backends disagree."""
        problems: list[str] = []
        for report in (self.des, self.udp):
            if not report.completed:
                problems.append(f"{report.backend}: transfer incomplete "
                                f"({report.delivered_unique}/{self.n_frames})")
            if report.digest != self.expected_digest:
                problems.append(
                    f"{report.backend}: delivered digest "
                    f"{report.digest[:12]}... != expected "
                    f"{self.expected_digest[:12]}..."
                )
        if self.des.verdict != self.udp.verdict:
            problems.append(
                f"monitor verdicts differ: des={self.des.verdict} "
                f"udp={self.udp.verdict}"
            )
        return problems

    def summary(self) -> str:
        status = "MATCH" if self.matches else "MISMATCH"
        lines = [
            f"[{status}] {self.scenario} (seed={self.seed}, "
            f"{self.n_frames} frames)",
            f"  des: delivered={self.des.delivered_unique} "
            f"retx={self.des.retransmissions} ok={self.des.monitors_ok}",
            f"  udp: delivered={self.udp.delivered_unique} "
            f"retx={self.udp.retransmissions} ok={self.udp.monitors_ok}",
        ]
        lines.extend(f"  !! {problem}" for problem in self.mismatches())
        return "\n".join(lines)


def run_conformance(
    names: Optional[Iterable[str]] = None,
    *,
    protocol: str = "lams",
    seed: int = 0,
    n_frames: int = 48,
    payload_bytes: int = 256,
    timeout: float = 30.0,
    overrides: Optional[dict] = None,
) -> list[ConformanceReport]:
    """Run the golden scenarios on both backends and compare.

    This is the harness behind ``python -m repro transmit --conform``
    and the conformance test module.
    """
    from .session import run_transfer  # lazy: session imports this module

    reports: list[ConformanceReport] = []
    for name in (list(names) if names is not None else sorted(GOLDEN_SCENARIOS)):
        scenario = golden_scenario(name)
        des = run_des_reference(
            scenario, protocol, seed,
            n_frames=n_frames, payload_bytes=payload_bytes,
            overrides=overrides,
        )
        result = run_transfer(
            scenario, protocol, seed,
            n_frames=n_frames, payload_bytes=payload_bytes,
            timeout=timeout, overrides=overrides,
        )
        expected = payload_digest(
            make_payload(i, payload_bytes) for i in range(n_frames)
        )
        reports.append(ConformanceReport(
            scenario=name, seed=seed, n_frames=n_frames,
            expected_digest=expected,
            des=des, udp=_udp_report(result),
        ))
    return reports
