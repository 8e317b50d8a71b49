"""The standard endpoint factory for the session manager.

:func:`session_factory` closes over a protocol name and configuration
and builds a fresh, started, one-way endpoint pair per pass through the
unified factory registry (:func:`repro.api.make_endpoint_pair`).  When
the protocol's config carries a ``link_lifetime`` field (LAMS-DLC), the
pass's remaining time is threaded into it so enforced recovery can
apply the paper's "recoverable link failure" test against real pass
boundaries.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Any, Callable, Optional

from ..core.endpoint import make_endpoint_pair, pair_factory, resolve_protocol
from ..simulator.engine import Simulator
from ..simulator.link import FullDuplexLink

__all__ = ["session_factory"]


def session_factory(protocol: str, config: Any) -> Callable:
    """An EndpointFactory running *protocol* for each pass.

    Works for any name in :func:`repro.api.available_protocols`; the
    same configuration object is reused across passes (with
    ``link_lifetime`` refreshed per pass when the config supports it).

    Every pass's endpoints trace into the link's tracer, so a monitor
    suite on that tracer sees the protocol records of the whole run.

    The returned factory accepts the session manager's ``on_failure``
    keyword; when the protocol's pair factory takes an ``on_failure_a``
    extra (LAMS-DLC), the callback is threaded into the sending
    endpoint so a mid-pass declared link failure tears the session down
    instead of going unnoticed.
    """
    has_lifetime = dataclasses.is_dataclass(config) and any(
        f.name == "link_lifetime" for f in dataclasses.fields(config)
    )
    family, _ = resolve_protocol(protocol)
    try:
        takes_failure = "on_failure_a" in inspect.signature(
            pair_factory(family)
        ).parameters
    except (TypeError, ValueError):
        takes_failure = False

    def factory(
        sim: Simulator,
        link: FullDuplexLink,
        deliver: Callable[[Any], None],
        pass_remaining: float,
        on_failure: Optional[Callable[[], None]] = None,
    ):
        session_config = (
            dataclasses.replace(config, link_lifetime=pass_remaining)
            if has_lifetime else config
        )
        extras = (
            {"on_failure_a": on_failure}
            if on_failure is not None and takes_failure else {}
        )
        endpoint_a, endpoint_b = make_endpoint_pair(
            protocol, sim, link, session_config,
            tracer=link.tracer, deliver_b=deliver, **extras
        )
        endpoint_a.start(send=True, receive=False)
        endpoint_b.start(send=False, receive=True)
        return endpoint_a, endpoint_b

    return factory

