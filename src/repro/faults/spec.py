"""Fault-schedule spec grammar: ``kind@site:opt=val,...`` rules.

A schedule is a semicolon-separated list of rules::

    io_error@aio.read:times=2; slow@aio.write:p=0.1,delay_us=500

Grammar::

    spec  := rule (";" rule)*
    rule  := kind "@" site [":" opt ("," opt)*]
    opt   := name "=" value

Kinds and the sites each may attach to:

================== ==========================  =====================================
kind               sites                       effect
================== ==========================  =====================================
io_error           aio.read, aio.write         raise :class:`InjectedIOError`
torn_write         store.commit                raise :class:`InjectedTornWrite`
                                               before the record's flip
bit_flip           aio.read                    flip one byte of the read buffer
slow               aio.read, aio.write         advance the virtual clock
pinned_exhaustion  pool.acquire                raise :class:`InjectedExhaustion`
straggler          rank.begin                  advance the virtual clock
================== ==========================  =====================================

Options (all optional):

``p=F``
    Injection probability per matching event, decided by a stable hash of
    ``(seed, rule, occurrence)`` — the schedule is a pure function of the
    seed, never of wall-clock or interleaving.
``times=N``
    Cap on total injections by this rule.  Defaults to 1 when neither
    ``p`` nor ``at`` is given (one-shot), unlimited otherwise.
``at=N``
    Inject only at the N-th matching event (0-based).
``after=N``
    Ignore the first N matching events.
``rank=N``
    Only events attributed to simulated rank N.
``key=S``
    Only events whose offload key or file path contains substring ``S``.
``delay_us=N``
    Virtual-clock delay for ``slow``/``straggler`` (default 1000).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

KINDS = (
    "io_error",
    "torn_write",
    "bit_flip",
    "slow",
    "pinned_exhaustion",
    "straggler",
)

#: Which sites each fault kind may attach to.
KIND_SITES: dict[str, tuple[str, ...]] = {
    "io_error": ("aio.read", "aio.write"),
    "torn_write": ("store.commit",),
    "bit_flip": ("aio.read",),
    "slow": ("aio.read", "aio.write"),
    "pinned_exhaustion": ("pool.acquire",),
    "straggler": ("rank.begin",),
}

_INT_OPTS = ("times", "at", "after", "rank", "delay_us")


@dataclass(frozen=True, slots=True)
class FaultRule:
    """One parsed injection rule (see module docstring for semantics)."""

    kind: str
    site: str
    p: float = 1.0
    times: Optional[int] = None
    at: Optional[int] = None
    after: int = 0
    rank: Optional[int] = None
    key: Optional[str] = None
    delay_us: int = 1000

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}"
            )
        if self.site not in KIND_SITES[self.kind]:
            raise ValueError(
                f"fault kind {self.kind!r} cannot attach to site"
                f" {self.site!r}; valid sites: {KIND_SITES[self.kind]}"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p={self.p} must be in [0, 1]")
        if self.times is not None and self.times < 0:
            raise ValueError("times must be >= 0")
        if self.at is not None and self.at < 0:
            raise ValueError("at must be >= 0")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if self.delay_us < 0:
            raise ValueError("delay_us must be >= 0")

    @property
    def max_fires(self) -> Optional[int]:
        """Injection cap: explicit ``times``, 1 for plain one-shot rules."""
        if self.times is not None:
            return self.times
        if self.at is not None:
            return 1
        if self.p >= 1.0:
            return 1  # a bare `kind@site` rule is one-shot by default
        return None

    def format(self) -> str:
        """Round-trippable spec text for this rule."""
        opts = []
        if self.p < 1.0:
            opts.append(f"p={self.p:g}")
        for name in ("times", "at", "rank"):
            v = getattr(self, name)
            if v is not None:
                opts.append(f"{name}={v}")
        if self.after:
            opts.append(f"after={self.after}")
        if self.key is not None:
            opts.append(f"key={self.key}")
        if self.delay_us != 1000:
            opts.append(f"delay_us={self.delay_us}")
        text = f"{self.kind}@{self.site}"
        return text + (":" + ",".join(opts) if opts else "")


def parse_faults(spec: str) -> tuple[FaultRule, ...]:
    """Parse a fault-schedule spec string into rules.

    Raises ``ValueError`` with the offending fragment on any grammar or
    validation error.
    """
    rules: list[FaultRule] = []
    for fragment in spec.split(";"):
        fragment = fragment.strip()
        if not fragment:
            continue
        head, _, tail = fragment.partition(":")
        kind, sep, site = head.partition("@")
        if not sep or not kind.strip() or not site.strip():
            raise ValueError(
                f"bad fault rule {fragment!r}: expected 'kind@site[:opts]'"
            )
        kwargs: dict = {}
        if tail.strip():
            for opt in tail.split(","):
                name, sep, value = opt.partition("=")
                name, value = name.strip(), value.strip()
                if not sep or not name or not value:
                    raise ValueError(
                        f"bad option {opt!r} in fault rule {fragment!r}:"
                        " expected 'name=value'"
                    )
                if name == "p":
                    kwargs["p"] = float(value)
                elif name in _INT_OPTS:
                    kwargs[name] = int(value)
                elif name == "key":
                    kwargs["key"] = value
                else:
                    raise ValueError(
                        f"unknown option {name!r} in fault rule {fragment!r}"
                    )
        rules.append(FaultRule(kind=kind.strip(), site=site.strip(), **kwargs))
    if not rules:
        raise ValueError(f"fault spec {spec!r} contains no rules")
    return tuple(rules)
