"""Parameters and the interceptable parameter hash table.

Sec. 7.1.1: "PyTorch modules store their tensor parameters in a hash table.
At the initialization time, we replace the hash table with a subclassed type
that overrides the tensor accesses."  :class:`ParameterDict` is that hash
table; the ZeRO engine swaps in a subclass whose ``__getitem__`` gathers
partitioned parameters on touch and registers them as external.
"""

from __future__ import annotations

import itertools
import weakref
from enum import Enum
from typing import Optional

import numpy as np

from repro.tensor.dtypes import DType, dtype_of

_param_ids = itertools.count()

#: Gradient arrays smaller than this are not recycled
#: (:meth:`Parameter.accepts_grad`).  The allocator already reuses freed
#: blocks of that size from its own bins at no cost, and shares them with
#: every other temporary of the step: holding them back made the activation
#: temporaries of a small model fall through to fresh ``mmap`` calls
#: (measured on the 256 KB weights of ``dense_z3``: 2 000 -> 4 500 page
#: faults per step).  From a megabyte up a fresh array is fresh pages.
GRAD_RECYCLE_MIN_BYTES = 1 << 20


class PartitionState(Enum):
    """Lifecycle of a ZeRO-3 parameter (Sec. 2 'ZeRO-3' description)."""

    AVAILABLE = "available"  # full tensor resident, usable by compute
    PARTITIONED = "partitioned"  # only this rank's shard held (maybe offloaded)


class Parameter:
    """A trainable tensor with gradient and ZeRO partition state.

    ``data`` holds the full tensor while :attr:`state` is ``AVAILABLE``.
    Under the ZeRO engine every parameter belongs to one ``group`` (a
    :class:`~repro.core.partition.ParamGroup`, opaque to this class), and
    ``data`` is a view into the group's flat buffer; while the group is
    partitioned ``data`` is an empty placeholder (:meth:`release_data`).
    ``unique_id`` survives data swaps.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "name",
        "unique_id",
        "state",
        "group",
        "_full_shape",
        "_grad_free",
        "_lent",
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
        self.group = None
        self._full_shape: tuple[int, ...] = ()
        # recycled gradient arrays (see grad_out); None until a kernel asks
        self._grad_free: Optional[list[np.ndarray]] = None
        # the array grad_out handed out last, until accumulate_grad: weakly,
        # so it counts as no holder (ZeroSan's stale-grad-alias check)
        self._lent: Optional[weakref.ref] = None

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
        """Logical shape, also while partitioned."""
        if self.state is PartitionState.PARTITIONED:
            return self._full_shape
        return self.data.shape

    def release_data(self, placeholder: np.ndarray) -> None:
        """Swap the full tensor for ``placeholder``: partitioned from now,
        with the shape it had remembered."""
        if self.state is not PartitionState.PARTITIONED:
            self._full_shape = self.data.shape
        self.data = placeholder
        self.state = PartitionState.PARTITIONED

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
        owns its memory (or is the array :meth:`grad_out` lent the kernel),
        is C-contiguous and already has the parameter's dtype — what every
        backward kernel hands over: ownership passes to the parameter and
        the caller must not write to ``grad`` afterwards.  Any other view
        or a differently typed array is copied; later gradients add into
        ``.grad`` in place.
        """
        lent = None if self._lent is None else self._lent()
        self._lent = None
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
            (grad.flags.owndata or grad is lent)
            and grad.flags.c_contiguous
            and grad.dtype == self.data.dtype
        ):
            self.grad = grad
        else:
            self.grad = grad.astype(self.data.dtype, copy=True)

    def zero_grad(self) -> None:
        self.grad = None

    # --- recycled gradient memory ------------------------------------------------
    def grad_out(self, *, scratch: bool = False) -> Optional[np.ndarray]:
        """An array for a backward kernel to write this parameter's next
        gradient into (``out=``), or ``None`` for it to allocate.

        The arrays are ones an earlier step's gradients were computed in,
        handed back through :meth:`recycle_grad` once their contents had
        been reduced — same shape and dtype, so :meth:`accumulate_grad`
        adopts the kernel's result as before, and backward stops faulting
        in fresh pages every step.  The first call opts the parameter in:
        only a parameter whose kernel takes arrays gets any back.

        ``scratch=True`` is for a result that will be *added* to ``.grad``,
        not adopted: the array is lent and stays available.
        """
        free = self._grad_free
        if free is None:
            self._grad_free = []
            return None
        if not free:
            return None
        if scratch:
            return free[-1]
        out = free.pop()
        self._lent = weakref.ref(out)
        return out

    @property
    def recycles(self) -> bool:
        """Whether a kernel has asked for gradient arrays (:meth:`grad_out`)."""
        return self._grad_free is not None

    def accepts_grad(self, array: np.ndarray) -> bool:
        """Whether ``array`` could serve as this parameter's next gradient:
        the parameter recycles, the array is large enough to be worth
        keeping from the allocator (:data:`GRAD_RECYCLE_MIN_BYTES`), and it
        is one :meth:`accumulate_grad` would adopt — owns its memory,
        C-contiguous, right shape and dtype."""
        return (
            self.recycles
            and array.nbytes >= GRAD_RECYCLE_MIN_BYTES
            and array.flags.owndata
            and array.flags.c_contiguous
            and array.shape == self.full_shape
            and array.dtype == self.data.dtype
        )

    def recycle_grad(self, array: np.ndarray, limit: int) -> None:
        """Hand back a gradient array whose contents are no longer needed —
        one :meth:`accepts_grad` is true of, or this parameter's view of a
        flat gradient buffer its whole group is computed in — to a
        parameter that :attr:`recycles`; the caller gives up its
        reference.  At most ``limit`` are kept, each once."""
        free = self._grad_free
        if len(free) < limit and not any(array is kept for kept in free):
            free.append(array)

    def drop_recycled_grads(self) -> None:
        """Forget the recycled arrays (an aborted step: nothing half-used
        survives into the replay)."""
        self._lent = None
        if self._grad_free:
            self._grad_free.clear()

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
