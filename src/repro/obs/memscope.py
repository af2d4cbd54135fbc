"""Live per-tier memory ledger with owner attribution and watermarks.

The paper's argument is a *memory* argument: Sec. 3 walks model states,
activations, and working memory tier by tier (Eqs. 1-5).  PR 1's tracer
answers "where did the time go"; :class:`MemScope` answers the matching
question "which tier peaked, when, and which parameters or buffers owned
those bytes".

Design mirrors :mod:`repro.obs.tracer`:

* One process-global scope, **disabled by default**.  The hot-path entry
  points (:func:`mem_alloc` / :func:`mem_free` / :func:`mem_sample`) are
  module-level one-liners that bail on a single attribute check, so the
  instrumented engine/offload/NVMe paths cost <2% of a step when the
  scope is off (the ``memscope`` row of :mod:`repro.obs.overhead`).
* When enabled, every allocation carries a *tier* (``gpu`` / ``cpu`` /
  ``nvme`` / ``pinned``), a *category* (``param_fp16``, ``grad``,
  ``optimizer_state``, ``gather_buffer``, ``bucket``, ``pinned``,
  ``activation_ckpt``, ``workspace``) and an *owner* (parameter id,
  module path, or pool name).  Frees are clamped per owner so a stray
  double-free can never push a tier negative; by construction the
  category and owner breakdowns always sum exactly to the tier total.
* :meth:`MemScope.sample` records a labelled watermark of all tiers at
  phase boundaries (per-module forward/backward, bucket flush, swap
  in/out, optimizer step) and, when the PR 1 tracer is active, emits a
  Chrome-trace counter event so Perfetto shows memory tracks aligned
  with the span timeline.

The scope is the repo's one account of resident bytes per tier: every
report, drift check and benchmark peak reads it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.obs.tracer import get_tracer
from repro.utils import format_bytes

__all__ = [
    "TIERS",
    "MemScope",
    "WatermarkSample",
    "attributed_zeros",
    "attribution_for_key",
    "get_memscope",
    "mem_alloc",
    "mem_free",
    "mem_sample",
    "render_memory_gantt",
    "set_memscope",
    "use_memscope",
]

#: Memory tiers ZeRO-Infinity spans (paper Sec. 5.1) plus the pinned
#: staging pool, which the paper treats as a scarce resource of its own.
TIERS = ("gpu", "cpu", "nvme", "pinned")

# Offload-store key suffix -> category.  Keys follow the convention
# ``g{gid}.r{rank}.{kind}``, one record per parameter group, rank and state
# kind (see core/partition.py), or ``act.{uid}.{seq}`` for activation
# checkpoints (see core/act_offload.py).
_KIND_TO_CATEGORY = {
    "param16": "param_fp16",
    "grad16": "grad",
    "master": "optimizer_state",
    "exp_avg": "optimizer_state",
    "exp_avg_sq": "optimizer_state",
}

_attr_cache: dict[str, tuple[str, str]] = {}


def attribution_for_key(key: str) -> tuple[str, str]:
    """Map an offload-store key to ``(category, owner)``.

    ``g3.r1.master`` -> ``("optimizer_state", "g3")``, owned by parameter
    group 3 (the engine aliases ``g3`` to its module's path);
    ``act.7.0`` -> ``("activation_ckpt", "act.7")``; anything else is
    ``workspace`` owned by the key itself.
    """
    hit = _attr_cache.get(key)
    if hit is not None:
        return hit
    if key.startswith("act."):
        out = ("activation_ckpt", key.rsplit(".", 1)[0])
    else:
        head, _, kind = key.rpartition(".")
        cat = _KIND_TO_CATEGORY.get(kind)
        if cat is not None:
            out = (cat, head.split(".", 1)[0])
        else:
            out = ("workspace", key)
    if len(_attr_cache) < 65536:  # bound the cache; keys repeat per step
        _attr_cache[key] = out
    return out


@dataclass(frozen=True, slots=True)
class WatermarkSample:
    """One labelled watermark: bytes resident per tier at an instant."""

    label: str
    ts_us: float
    tiers: dict[str, int]


class MemScope:
    """Per-tier byte ledger with category/owner attribution.

    Thread-safe; all mutation happens under one lock (the instrumented
    paths already serialize on array copies far larger than a dict op).
    """

    def __init__(self, *, enabled: bool = False, max_samples: int = 100_000):
        self._enabled = bool(enabled)
        self._lock = threading.Lock()
        self._epoch_ns = time.perf_counter_ns()
        self.max_samples = max_samples
        # tier -> current bytes / peak bytes
        self._tiers: dict[str, int] = {}
        self._peaks: dict[str, int] = {}
        # (tier, category) -> bytes; (tier, category, owner) -> bytes
        self._by_cat: dict[tuple[str, str], int] = {}
        self._by_owner: dict[tuple[str, str, str], int] = {}
        # snapshot of the category breakdown at the instant each tier
        # peaked — so ``sum(peak_breakdown(t)) == peak_bytes(t)`` holds
        # by construction.
        self._peak_breakdown: dict[str, dict[str, int]] = {}
        self._peak_label: dict[str, str] = {}
        self._samples: list[WatermarkSample] = []
        self._aliases: dict[str, str] = {}
        self._last_label = ""
        self.dropped_samples = 0
        self.underflows = 0
        self.op_count = 0  # allocs + frees + samples, for the overhead model

    # -- lifecycle ---------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        with self._lock:
            self._tiers.clear()
            self._peaks.clear()
            self._by_cat.clear()
            self._by_owner.clear()
            self._peak_breakdown.clear()
            self._peak_label.clear()
            self._samples.clear()
            self._last_label = ""
            self.dropped_samples = 0
            self.underflows = 0
            self.op_count = 0

    # -- hot path ----------------------------------------------------

    def alloc(
        self,
        tier: str,
        nbytes: int,
        *,
        category: str = "workspace",
        owner: str = "unattributed",
    ) -> None:
        """Record ``nbytes`` becoming resident on ``tier``."""
        if not self._enabled or nbytes <= 0:
            return
        nbytes = int(nbytes)
        okey = (tier, category, owner)
        with self._lock:
            self.op_count += 1
            cur = self._tiers.get(tier, 0) + nbytes
            self._tiers[tier] = cur
            ckey = (tier, category)
            self._by_cat[ckey] = self._by_cat.get(ckey, 0) + nbytes
            self._by_owner[okey] = self._by_owner.get(okey, 0) + nbytes
            if cur > self._peaks.get(tier, 0):
                self._peaks[tier] = cur
                self._peak_breakdown[tier] = {
                    c: v for (t, c), v in self._by_cat.items() if t == tier and v
                }
                self._peak_label[tier] = self._last_label

    def free(
        self,
        tier: str,
        nbytes: int,
        *,
        category: str = "workspace",
        owner: str = "unattributed",
    ) -> None:
        """Record ``nbytes`` leaving ``tier``.

        The decrement is clamped to what the ``(tier, category, owner)``
        key actually holds, and tier/category totals shrink by exactly
        the clamped amount — a stray double-free bumps ``underflows``
        instead of corrupting the breakdown invariant.
        """
        if not self._enabled or nbytes <= 0:
            return
        nbytes = int(nbytes)
        okey = (tier, category, owner)
        with self._lock:
            self.op_count += 1
            held = self._by_owner.get(okey, 0)
            removed = nbytes if nbytes <= held else held
            if removed < nbytes:
                self.underflows += 1
            if removed == 0:
                return
            left = held - removed
            if left:
                self._by_owner[okey] = left
            else:
                del self._by_owner[okey]
            ckey = (tier, category)
            self._by_cat[ckey] = self._by_cat.get(ckey, 0) - removed
            if not self._by_cat[ckey]:
                del self._by_cat[ckey]
            self._tiers[tier] = self._tiers.get(tier, 0) - removed

    def sample(self, label: str) -> None:
        """Record a labelled watermark of all tiers (a phase boundary)."""
        if not self._enabled:
            return
        ts_us = (time.perf_counter_ns() - self._epoch_ns) / 1000.0
        with self._lock:
            self.op_count += 1
            self._last_label = label
            snap = dict(self._tiers)
            if len(self._samples) < self.max_samples:
                self._samples.append(WatermarkSample(label, ts_us, snap))
            else:
                self.dropped_samples += 1
        tracer = get_tracer()
        if tracer.enabled:
            # one counter track, one series per tier — aligned with spans
            tracer.counter("mem.tiers", **{t: snap.get(t, 0) for t in TIERS})

    # -- queries -----------------------------------------------------

    def tiers(self) -> list[str]:
        with self._lock:
            seen = set(self._tiers) | set(self._peaks)
        return [t for t in TIERS if t in seen] + sorted(seen - set(TIERS))

    def tier_bytes(self, tier: str) -> int:
        with self._lock:
            return self._tiers.get(tier, 0)

    def peak_bytes(self, tier: str) -> int:
        with self._lock:
            return self._peaks.get(tier, 0)

    def peak_label(self, tier: str) -> str:
        """Watermark label in effect when ``tier`` last peaked."""
        with self._lock:
            return self._peak_label.get(tier, "")

    def breakdown(self, tier: str) -> dict[str, int]:
        """Current bytes per category on ``tier`` (sums to tier total)."""
        with self._lock:
            return {c: v for (t, c), v in self._by_cat.items() if t == tier and v}

    def peak_breakdown(self, tier: str) -> dict[str, int]:
        """Category breakdown captured at the instant ``tier`` peaked."""
        with self._lock:
            return dict(self._peak_breakdown.get(tier, {}))

    def owners(
        self, tier: str, *, category: str | None = None, top: int = 0
    ) -> list[tuple[str, str, int]]:
        """Current ``(owner, category, bytes)`` rows for ``tier``.

        Sorted by bytes descending; ``top`` truncates, 0 keeps all.
        Owner names go through the alias table (``p3`` -> parameter
        name) when one was registered.
        """
        with self._lock:
            rows = [
                (self._aliases.get(o, o), c, v)
                for (t, c, o), v in self._by_owner.items()
                if t == tier and v and (category is None or c == category)
            ]
        rows.sort(key=lambda r: (-r[2], r[0], r[1]))
        return rows[:top] if top else rows

    def timeline(self) -> list[WatermarkSample]:
        with self._lock:
            return list(self._samples)

    def alias(self, owner: str, name: str) -> None:
        """Register a display name for an owner id (``p3`` -> ``blocks.0.attn.wq``)."""
        with self._lock:
            self._aliases[owner] = name


# -- process-global scope --------------------------------------------

_global_memscope = MemScope(enabled=False)


def get_memscope() -> MemScope:
    return _global_memscope


def set_memscope(scope: MemScope) -> MemScope:
    """Install ``scope`` as the process-global scope; returns the old one."""
    global _global_memscope
    old = _global_memscope
    _global_memscope = scope
    return old


class use_memscope:
    """Context manager: install an enabled :class:`MemScope` for a block.

    >>> with use_memscope() as scope:
    ...     engine.train_step(batch)
    >>> scope.peak_bytes("gpu")
    """

    def __init__(self, scope: MemScope | None = None):
        # A passed-in scope keeps its enabled state (so a disabled scope
        # can be installed to measure the no-op path, like use_tracer).
        self.scope = scope if scope is not None else MemScope(enabled=True)
        self._old: MemScope | None = None

    def __enter__(self) -> MemScope:
        self._old = set_memscope(self.scope)
        return self.scope

    def __exit__(self, *exc) -> None:
        assert self._old is not None
        set_memscope(self._old)


def mem_alloc(
    tier: str, nbytes: int, *, category: str = "workspace", owner: str = "unattributed"
) -> None:
    """Hot-path alloc hook: a no-op attribute check when the scope is off."""
    s = _global_memscope
    if not s._enabled:
        return
    s.alloc(tier, nbytes, category=category, owner=owner)


def mem_free(
    tier: str, nbytes: int, *, category: str = "workspace", owner: str = "unattributed"
) -> None:
    """Hot-path free hook: a no-op attribute check when the scope is off."""
    s = _global_memscope
    if not s._enabled:
        return
    s.free(tier, nbytes, category=category, owner=owner)


def mem_sample(label: str) -> None:
    """Hot-path watermark hook: a no-op attribute check when the scope is off."""
    s = _global_memscope
    if not s._enabled:
        return
    s.sample(label)


# -- attributed allocation helpers -----------------------------------
#
# The repo lint (tools/lint_repro.py, rule ``rawalloc``) bans bare
# np.empty/np.zeros in the instrumented hot-path modules: long-lived
# buffers must come through these helpers so the scope sees them, and
# transient temporaries must carry ``# lint: allow-rawalloc``.


def attributed_zeros(
    shape, dtype, *, tier: str, category: str, owner: str
) -> np.ndarray:
    """``np.zeros`` that reports its footprint to the active scope."""
    out = np.zeros(shape, dtype=dtype)
    mem_alloc(tier, out.nbytes, category=category, owner=owner)
    return out


# -- ASCII memory gantt ----------------------------------------------

_BARS = " ▁▂▃▄▅▆▇█"


def render_memory_gantt(scope: MemScope, *, width: int = 64) -> str:
    """Render the watermark timeline as one sparkline row per tier.

    Each column aggregates (max) the samples falling in its slice of the
    timeline, so the rendered peak matches the true watermark even when
    the timeline is longer than ``width``.  A free that exceeded what its
    owner held (``MemScope.underflows``) is reported below the rows.
    """
    samples = scope.timeline()
    underflows = (
        [f"  ({scope.underflows} free(s) exceeded what the owner held; clamped)"]
        if scope.underflows
        else []
    )
    if not samples:
        return "\n".join(["memory gantt: no watermark samples recorded", *underflows])
    tiers = scope.tiers()
    n = len(samples)
    width = max(1, min(width, n))
    lines = [
        f"memory gantt — {n} watermark samples over "
        f"{(samples[-1].ts_us - samples[0].ts_us) / 1000.0:.1f} ms"
    ]
    for tier in tiers:
        vals = [s.tiers.get(tier, 0) for s in samples]
        peak = max(scope.peak_bytes(tier), max(vals))
        cols = []
        for i in range(width):
            lo = i * n // width
            hi = max(lo + 1, (i + 1) * n // width)
            v = max(vals[lo:hi])
            idx = 0 if peak == 0 else 1 + int((len(_BARS) - 2) * v / peak)
            cols.append(_BARS[min(idx, len(_BARS) - 1)] if v else _BARS[0])
        label = scope.peak_label(tier)
        at = f" @ {label}" if label else ""
        peak_text = format_bytes(peak, binary=True, precision=1)
        lines.append(f"  {tier:<6} |{''.join(cols)}| peak {peak_text}{at}")
    if scope.dropped_samples:
        lines.append(f"  ({scope.dropped_samples} samples dropped past the cap)")
    return "\n".join(lines + underflows)
