"""repro.faults: deterministic fault injection and the resilience tiers.

Offloaded training makes the storage path part of the correctness envelope
(PAPER Secs. 5-6): parameter, gradient and optimizer state round-trip
through CPU DRAM and NVMe every step, so an I/O fault anywhere on that path
is a training fault.  This package provides both halves of the answer:

* a **fault-injection plane** (:class:`~repro.faults.runtime.FaultPlane`)
  that deterministically injects I/O errors, torn writes, bit-flips, slow
  completions, pinned-pool exhaustion and straggler ranks at named sites in
  the nvme/offload hot path, driven by a seeded spec grammar
  (:mod:`repro.faults.spec`);
* the **recovery primitives** the production stack uses to survive them:
  bounded retry-with-backoff over a deterministic
  :class:`~repro.faults.clock.VirtualClock`
  (:func:`~repro.faults.retry.run_with_retries`), and the structured
  terminal error taxonomy (:mod:`repro.faults.errors`) ending in
  :class:`~repro.faults.errors.FaultUnrecoverable`.

Recovery is tiered: aio block retries absorb transient device errors,
checksum verify-on-fetch re-reads corrupted records, pinned exhaustion
degrades async staging to sync unpinned I/O, and engine-level step replay
(via ``coordinator.abort_step``) re-executes a failed step bit-identically.
Only faults that none of those tiers can absorb raise
``FaultUnrecoverable``.  Enable via ``--faults`` on the CLI,
``REPRO_FAULTS=<spec>`` in the environment, or :func:`use_faults` in tests;
disabled, every site costs one attribute load of the plane table
(:mod:`repro.obs.planes`) plus an ``is None`` test
("Overhead contract" in ``docs/observability.md``, ``faults`` row).
"""

from repro.faults.clock import VirtualClock, virtual_clock
from repro.faults.errors import (
    ChecksumMismatch,
    FaultError,
    FaultUnrecoverable,
    InjectedExhaustion,
    InjectedIOError,
    InjectedTornWrite,
)
from repro.faults.retry import RetryPolicy, run_with_retries
from repro.faults.runtime import FaultPlane, use_faults
from repro.faults.spec import (
    KIND_SITES,
    KINDS,
    FaultRule,
    parse_faults,
)

__all__ = [
    "ChecksumMismatch",
    "FaultError",
    "FaultPlane",
    "FaultRule",
    "FaultUnrecoverable",
    "InjectedExhaustion",
    "InjectedIOError",
    "InjectedTornWrite",
    "KINDS",
    "KIND_SITES",
    "RetryPolicy",
    "VirtualClock",
    "parse_faults",
    "run_with_retries",
    "use_faults",
    "virtual_clock",
]
