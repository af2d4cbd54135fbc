"""Checker-pass selection (``ZeroConfig.check`` / ``--check`` / REPRO_CHECK).

Kept free of heavyweight imports so ``repro.core.config`` can embed a
:class:`CheckConfig` without pulling the checker machinery into every
config construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: The three cooperating passes, in documentation order.
PASS_NAMES: tuple[str, ...] = ("zerosan", "races", "lint")


@dataclass(frozen=True)
class CheckConfig:
    """Which checker passes run, and what a violation does.

    All passes default to off — the disabled configuration must cost
    nothing on the hot path (the ``check`` row of :mod:`repro.obs.overhead`).
    """

    zerosan: bool = False  # parameter-lifecycle state machine
    races: bool = False  # aio / pinned-buffer happens-before
    lint: bool = False  # AST lint (static; engines ignore it)
    #: "raise" surfaces violations at the point of cause; "record" collects
    #: them on the context for a post-run report (the CLI default).
    mode: str = "raise"

    def __post_init__(self) -> None:
        if self.mode not in ("raise", "record"):
            raise ValueError("check mode must be 'raise' or 'record'")

    @property
    def enabled_passes(self) -> tuple[str, ...]:
        return tuple(name for name in PASS_NAMES if getattr(self, name))

    @property
    def any_runtime(self) -> bool:
        """Whether any *runtime* pass is on (lint is purely static)."""
        return self.zerosan or self.races

    @classmethod
    def from_spec(cls, spec: str, *, mode: str = "raise") -> "CheckConfig":
        """Parse ``"all"`` / ``"none"`` / a comma list of pass names."""
        text = (spec or "").strip().lower()
        if text in ("", "0", "none", "off"):
            return cls(mode=mode)
        if text in ("all", "1", "on"):
            return cls(zerosan=True, races=True, lint=True, mode=mode)
        cfg = cls(mode=mode)
        for token in text.split(","):
            name = token.strip()
            if not name:
                continue
            if name not in PASS_NAMES:
                raise ValueError(
                    f"unknown check pass {name!r}; expected 'all' or a comma"
                    f" list of {', '.join(PASS_NAMES)}"
                )
            cfg = replace(cfg, **{name: True})
        return cfg

    def spec(self) -> str:
        """The canonical comma-list spec (inverse of :meth:`from_spec`)."""
        names = self.enabled_passes
        if len(names) == len(PASS_NAMES):
            return "all"
        return ",".join(names) if names else "none"
