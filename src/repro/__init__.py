"""repro — reproduction of "The LAMS-DLC ARQ Protocol" (Ward & Choi, 1991).

A complete, executable reconstruction of the paper's system:

- :mod:`repro.core` — the LAMS-DLC protocol itself (NAK-only error
  control with periodic cumulative checkpoints, renumbered
  retransmissions, enforced recovery, Stop-Go flow control).
- :mod:`repro.hdlc` — the SR-HDLC baseline (plus Go-Back-N).
- :mod:`repro.simulator` — from-scratch discrete-event simulator:
  engine, links, error models (random + Gilbert–Elliott bursts), LEO
  orbital geometry.
- :mod:`repro.fec` — CRC, codec residual-BER models.
- :mod:`repro.analysis` — every closed-form expression of the paper's
  Section 4.
- :mod:`repro.netlayer` — datagrams, store-and-forward routing, and the
  destination resequencer the relaxed in-sequence constraint requires.
- :mod:`repro.workloads` / :mod:`repro.experiments` — traffic models,
  canned scenarios, and the experiment registry (``experiments list``)
  regenerating the paper's evaluation.

Quickstart::

    from repro.api import build_simulation
    from repro.workloads import preset
    from repro.workloads.generators import FiniteBatch

    setup = build_simulation(preset("nominal"), "lams", seed=1)
    FiniteBatch(setup.sim, setup.endpoint_a, count=1000).start()
    setup.run(until=5.0)
    assert len(setup.delivered) == 1000
"""

__version__ = "1.1.0"

__all__ = ["__version__"]
