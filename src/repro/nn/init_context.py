"""Partition-parameters-at-construction (Sec. 7.2).

A 500B-parameter model occupies 1 TB in fp16 — too large to materialise on
any single process before partitioning.  ZeRO-Infinity therefore "decorates
the ``__init__`` method of torch.nn.Module so that parameters allocated under
each module/sub-module are partitioned immediately after its initialization".

The context does exactly that: it wraps the ``__init__`` of :class:`Module`
and of every subclass defined when it is entered, so that when a module's
outermost constructor returns, a callback partitions the parameters the
module registered — one group per module (and dtype), before the next
module is built.  Peak unpartitioned bytes therefore stay at the largest
leaf module's parameters rather than the sum of all of them — the guarantee
the section's 1 TB example relies on.  The context records that peak so
tests can assert it.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Iterator

from repro.nn.module import Module


def _module_classes(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _module_classes(sub)


@contextlib.contextmanager
def module_init_interceptor(callback: Callable[[Module], None]):
    """Call ``callback(module)`` as each module's constructor returns.

    Every ``Module`` class's ``__init__`` is wrapped.  A subclass's
    ``__init__`` calls its base's on the way: only the constructor of the
    module's own class (the first ``__init__`` in its MRO) reports, once
    the whole object is built.  Classes defined inside the context are not
    wrapped; their modules are left to the caller.
    """
    originals: dict[type, Callable] = {}

    def wrap(init: Callable) -> Callable:
        @functools.wraps(init)
        def wrapper(self: Module, *args, **kwargs) -> None:
            init(self, *args, **kwargs)
            if type(self).__init__ is wrapper:
                callback(self)

        return wrapper

    for cls in set(_module_classes(Module)):
        init = cls.__dict__.get("__init__")
        if init is not None:
            originals[cls] = init
            cls.__init__ = wrap(init)  # type: ignore[method-assign]
    try:
        yield
    finally:
        for cls, init in originals.items():
            cls.__init__ = init  # type: ignore[method-assign]


class PartitionedInitContext:
    """Context manager that partitions parameters as a model is built.

    Parameters
    ----------
    partition_fn:
        Called with each freshly constructed :class:`Module`; expected to
        group and partition the parameters it registered that no group
        holds yet, returning the groups it made.  Supplied by
        :class:`repro.core.engine.ZeroInfinityEngine`.

    Attributes
    ----------
    peak_unpartitioned_bytes:
        Largest group seen unpartitioned at any instant: the aggregate
        memory a single process needed during initialisation.
    """

    def __init__(self, partition_fn: Callable[[Module], list]) -> None:
        self.partition_fn = partition_fn
        self.peak_unpartitioned_bytes = 0
        self._cm = None

    def _on_module(self, module: Module) -> None:
        for group in self.partition_fn(module):
            self.peak_unpartitioned_bytes = max(
                self.peak_unpartitioned_bytes, group.nbytes
            )

    def __enter__(self) -> "PartitionedInitContext":
        self._cm = module_init_interceptor(self._on_module)
        self._cm.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        cm, self._cm = self._cm, None
        cm.__exit__(*exc)
