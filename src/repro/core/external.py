"""External parameters: used across module boundaries (Sec. 7.1.1).

Some architectures use a parameter defined in one submodule inside another
submodule's forward/backward — GPT's tied embedding being the canonical
case.  The coordinator's per-module hooks cannot know to gather them, so
ZeRO-Infinity provides three mechanisms, all implemented here:

1. **Manual registration** (:func:`register_external_parameter`): the
   parameter is gathered/released with the registered consumer module and
   picked up by its prefetch window.

2. **Intercepting partitioned parameter accesses**
   (:class:`InterceptingParameterDict`): the module's parameter hash table
   is replaced by a subclass whose access hook blocks-allgathers any
   still-partitioned parameter and auto-registers it as external.

3. **Activation introspection** (:func:`install_activation_introspection`):
   forward outputs are inspected for :class:`Parameter` objects (e.g.
   Megatron returning bias vectors); any partitioned parameter found is
   gathered and auto-registered.
"""

from __future__ import annotations


from repro.nn.module import Module
from repro.nn.parameter import Parameter, ParameterDict, PartitionState


class ExternalParameterRegistry:
    """Tracks which modules consume which foreign parameters."""

    def __init__(self) -> None:
        # consumer module id -> parameters to gather with that module
        self._by_module: dict[int, list[Parameter]] = {}

    def register(self, module: Module, param: Parameter) -> None:
        plist = self._by_module.setdefault(id(module), [])
        if all(p is not param for p in plist):
            plist.append(param)

    def params_for(self, module: Module) -> list[Parameter]:
        return self._by_module.get(id(module), [])

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_module.values())


def register_external_parameter(
    coordinator, module: Module, param: Parameter
) -> None:
    """Manually declare that ``module`` consumes ``param`` (public API).

    Installs gather/release hooks on the consumer so the foreign parameter
    follows the same fetch/partition lifecycle as the module's own.
    """
    registry: ExternalParameterRegistry = coordinator.external_registry

    def gather_hook(mod, *_):
        if param.state is PartitionState.PARTITIONED:
            coordinator.partitioner.gather(param)
            coordinator.stats.gathers += 1

    def release_hook(mod, *_):
        if param.group is not None and param.state is PartitionState.AVAILABLE:
            coordinator.partitioner.release(param)
            coordinator.stats.releases += 1

    was_known = any(p is param for p in registry.params_for(module))
    if was_known:
        return
    registry.register(module, param)
    module.register_forward_pre_hook(gather_hook)
    module.register_forward_hook(lambda m, a, o: (release_hook(m), None)[1])
    module.register_backward_pre_hook(gather_hook)
    module.register_backward_hook(release_hook)


class InterceptingParameterDict(ParameterDict):
    """Parameter hash table that gathers partitioned parameters on touch.

    "When a partitioned parameter is accessed, we do a blocking allgather on
    the parameter, register it as an external parameter, and then return the
    gathered parameter."
    """

    def __init__(self, base: ParameterDict, module: Module, coordinator) -> None:
        super().__init__(base)
        self._module = module
        self._coordinator = coordinator

    def touched(self, key: str, param: Parameter) -> Parameter:
        if param.state is PartitionState.PARTITIONED:
            coordinator = self._coordinator
            coordinator.partitioner.gather(param)  # blocking allgather
            coordinator.stats.gathers += 1
            register_external_parameter(coordinator, self._module, param)
        return param


def install_parameter_interception(model: Module, coordinator) -> None:
    """Swap every module's parameter dict for the intercepting subclass."""
    for module in model.modules():
        current = module._parameters
        if isinstance(current, InterceptingParameterDict):
            continue
        object.__setattr__(
            module,
            "_parameters",
            InterceptingParameterDict(current, module, coordinator),
        )


def install_activation_introspection(model: Module, coordinator) -> None:
    """Inspect forward outputs for partitioned parameters and register them.

    Checks the output object (and one level of tuple/list nesting) for
    :class:`Parameter` instances returned from a submodule's forward.
    """

    def introspect(module: Module, args, output):
        candidates = (
            list(output) if isinstance(output, (tuple, list)) else [output]
        )
        for item in candidates:
            if isinstance(item, Parameter):
                if item.state is PartitionState.PARTITIONED:
                    coordinator.partitioner.gather(item)
                    coordinator.stats.gathers += 1
                register_external_parameter(coordinator, module, item)
        return None

    for module in model.modules():
        module.register_forward_hook(introspect)
