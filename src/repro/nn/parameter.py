"""Parameters and the interceptable parameter hash table.

Sec. 7.1.1: "PyTorch modules store their tensor parameters in a hash table.
At the initialization time, we replace the hash table with a subclassed type
that overrides the tensor accesses."  :class:`ParameterDict` is that hash
table; the ZeRO engine swaps in a subclass whose ``__getitem__`` gathers
partitioned parameters on touch and registers them as external.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Optional

import numpy as np

from repro.tensor.dtypes import DType, dtype_of

_param_ids = itertools.count()


class PartitionState(Enum):
    """Lifecycle of a ZeRO-3 parameter (Sec. 2 'ZeRO-3' description)."""

    AVAILABLE = "available"  # full tensor resident, usable by compute
    PARTITIONED = "partitioned"  # only this rank's shard held (maybe offloaded)
    INFLIGHT = "inflight"  # allgather/fetch issued, not yet complete


class Parameter:
    """A trainable tensor with gradient and ZeRO partition state.

    ``data`` holds the full tensor while :attr:`state` is ``AVAILABLE``.
    When the ZeRO engine partitions the parameter it replaces ``data`` with
    an empty placeholder and records shard bookkeeping in ``zero_meta``
    (opaque to this class).  ``unique_id`` survives data swaps — it is the
    key used by the offload store and the prefetcher's operator trace.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "name",
        "unique_id",
        "state",
        "zero_meta",
    )

    def __init__(
        self,
        data: np.ndarray,
        *,
        requires_grad: bool = True,
        name: str = "",
    ) -> None:
        self.data = np.ascontiguousarray(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.name = name
        self.unique_id = next(_param_ids)
        self.state = PartitionState.AVAILABLE
        self.zero_meta = None

    # --- shape/dtype ------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def numel(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    @property
    def dtype(self) -> DType:
        return dtype_of(self.data)

    @property
    def full_shape(self) -> tuple[int, ...]:
        """Logical shape even while partitioned (from zero_meta if present)."""
        if self.zero_meta is not None and hasattr(self.zero_meta, "full_shape"):
            return tuple(self.zero_meta.full_shape)
        return self.data.shape

    @property
    def full_numel(self) -> int:
        n = 1
        for s in self.full_shape:
            n *= s
        return n

    # --- gradient management ---------------------------------------------------
    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``.grad``.

        The first gradient of a step is **adopted**, not copied, when it
        owns its memory, is C-contiguous and already has the parameter's
        dtype — what every backward kernel hands over: ownership passes to
        the parameter and the caller must not write to ``grad`` afterwards.
        A view or a differently typed array is copied; later gradients add
        into ``.grad`` in place.
        """
        if not self.requires_grad:
            return
        if grad.shape != self.full_shape:
            raise ValueError(
                f"grad shape {grad.shape} != param shape {self.full_shape}"
                f" for {self.name or self.unique_id}"
            )
        if self.grad is not None:
            self.grad += grad
        elif (
            grad.flags.owndata
            and grad.flags.c_contiguous
            and grad.dtype == self.data.dtype
        ):
            self.grad = grad
        else:
            self.grad = grad.astype(self.data.dtype, copy=True)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return (
            f"Parameter({self.name!r}, shape={self.full_shape},"
            f" state={self.state.value})"
        )


class ParameterDict(dict):
    """The module parameter hash table.

    A plain dict subclass so the engine can *replace* it with a further
    subclass that intercepts ``__getitem__`` (see
    :class:`repro.core.external.InterceptingParameterDict`).  Keys are
    attribute names, values are :class:`Parameter`.
    """

    def touched(self, key: str, param: Parameter) -> Parameter:
        """Hook point called on every access; identity by default."""
        return param

    def __getitem__(self, key: str) -> Parameter:
        return self.touched(key, super().__getitem__(key))

    def untouched(self, key: str) -> Parameter:
        """The parameter without the access hook, for a use that does not
        read its values (accumulating its gradient)."""
        return super().__getitem__(key)


def kaiming_uniform(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, dtype=np.float32
) -> np.ndarray:
    """He-style uniform init, the default for linear weights."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def normal_init(
    rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02, dtype=np.float32
) -> np.ndarray:
    """GPT-2 style normal init for embeddings."""
    return (rng.standard_normal(shape) * std).astype(dtype)
