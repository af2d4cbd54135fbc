"""Module hierarchy with forward *and backward* hooks.

The module tree mirrors ``torch.nn.Module`` closely enough that the paper's
hook-injection strategy (Sec. 7.1) carries over verbatim:

* "pre forward/backward hooks ... trigger allgather collectives to collect
  the parameters required before its forward/backward pass";
* "post forward/backward hooks ... trigger parameter/gradient partitioning
  and optionally offloading".

Unlike PyTorch there is no autograd tape: composite modules implement
``_backward`` explicitly, calling ``submodule.backward(...)`` in reverse
order.  ``backward()`` fires the same four hook points the engine needs, so
the coordinator cannot tell the difference.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.nn.parameter import Parameter, ParameterDict

# Hook signatures (all return values ignored unless stated):
#   forward_pre_hook(module, args)
#   forward_hook(module, args, output) -> optional replacement output
#   backward_pre_hook(module, grad_output)
#   backward_hook(module, grad_input)
Hook = Callable


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        # assign via object.__setattr__ so our __setattr__ can rely on them
        object.__setattr__(self, "_parameters", ParameterDict())
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_forward_pre_hooks", [])
        object.__setattr__(self, "_forward_hooks", [])
        object.__setattr__(self, "_backward_pre_hooks", [])
        object.__setattr__(self, "_backward_hooks", [])
        object.__setattr__(self, "training", True)
        object.__setattr__(self, "_cache", None)

    # --- attribute plumbing ----------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        else:
            object.__setattr__(self, name, value)

    def __getattr__(self, name: str):
        # only called when normal lookup fails
        parameters = object.__getattribute__(self, "_parameters")
        if name in parameters:
            return parameters[name]  # goes through ParameterDict.__getitem__
        modules = object.__getattribute__(self, "_modules")
        if name in modules:
            return modules[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # --- tree traversal --------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, mod in self._modules.items():
            sub = f"{prefix}.{name}" if prefix else name
            yield from mod.named_modules(sub)

    def modules(self) -> Iterator["Module"]:
        for _, m in self.named_modules():
            yield m

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Hierarchically named parameters, deduplicated by identity.

        Dedup matters because tied weights (external parameters) appear in
        two modules; optimizer construction must see them once.
        """
        seen: set[int] = set()
        for mod_name, mod in self.named_modules(prefix):
            for p_name, p in mod._parameters.items():
                if id(p) in seen:
                    continue
                seen.add(id(p))
                yield (f"{mod_name}.{p_name}" if mod_name else p_name), p

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def direct_parameters(self) -> list[Parameter]:
        """Parameters owned by this module itself (not descendants)."""
        return list(self._parameters.values())

    def parameters_read(self, phase: str) -> list[Parameter]:
        """Direct parameters whose *values* ``phase`` (``"fwd"`` | ``"bwd"``)
        reads — what a ZeRO-3 engine has to gather before running it.

        Every direct parameter by default; a layer whose backward only
        produces a parameter's gradient overrides this.
        """
        return self.direct_parameters()

    def num_parameters(self) -> int:
        return sum(p.full_numel for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            object.__setattr__(m, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def name_parameters(self, prefix: str = "") -> None:
        """Assign hierarchical names onto the parameters themselves."""
        for name, p in self.named_parameters(prefix):
            p.name = name

    # --- hooks ---------------------------------------------------------------
    def register_forward_pre_hook(self, hook: Hook) -> Callable[[], None]:
        self._forward_pre_hooks.append(hook)
        return lambda: self._forward_pre_hooks.remove(hook)

    def register_forward_hook(self, hook: Hook) -> Callable[[], None]:
        self._forward_hooks.append(hook)
        return lambda: self._forward_hooks.remove(hook)

    def register_backward_pre_hook(self, hook: Hook) -> Callable[[], None]:
        self._backward_pre_hooks.append(hook)
        return lambda: self._backward_pre_hooks.remove(hook)

    def register_backward_hook(self, hook: Hook) -> Callable[[], None]:
        self._backward_hooks.append(hook)
        return lambda: self._backward_hooks.remove(hook)

    # --- execution ---------------------------------------------------------------
    def __call__(self, *args, **kwargs):
        # iterate over snapshots: hooks may register further hooks (e.g.
        # external-parameter auto-registration fires inside a forward hook)
        for hook in list(self._forward_pre_hooks):
            hook(self, args)
        output = self.forward(*args, **kwargs)
        for hook in list(self._forward_hooks):
            replaced = hook(self, args, output)
            if replaced is not None:
                output = replaced
        return output

    def backward(self, grad_output):
        """Run the backward pass of the most recent forward."""
        for hook in list(self._backward_pre_hooks):
            hook(self, grad_output)
        grad_input = self._backward(grad_output)
        for hook in list(self._backward_hooks):
            hook(self, grad_input)
        return grad_input

    # --- to be implemented by subclasses ------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError(f"{type(self).__name__}.forward")

    def _backward(self, grad_output):  # pragma: no cover - abstract
        raise NotImplementedError(f"{type(self).__name__}._backward")

    # --- misc ----------------------------------------------------------------
    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        lines = [f"{type(self).__name__}({self.extra_repr()}"]
        for name, mod in self._modules.items():
            sub = repr(mod).splitlines()
            lines.append(f"  ({name}): " + sub[0])
            lines.extend("  " + s for s in sub[1:])
        lines.append(")")
        return "\n".join(lines) if len(lines) > 2 else lines[0] + ")"
