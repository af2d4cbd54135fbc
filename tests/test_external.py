"""External parameters (Sec. 7.1.1): manual registration, access
interception, and activation introspection."""

import numpy as np
import pytest

from repro.comm.group import ProcessGroup
from repro.core.config import OffloadConfig, ZeroConfig, ZeroStage
from repro.core.coordinator import ParameterCoordinator
from repro.core.external import (
    install_activation_introspection,
    install_parameter_interception,
    register_external_parameter,
)
from repro.core.offload import InfinityOffloadEngine
from repro.core.partition import ParameterPartitioner
from repro.nn import GPTModel, Linear, Module, Parameter, TransformerConfig
from repro.nn.parameter import PartitionState
from repro.utils.rng import seeded_rng
from repro.core import ZeroInfinityEngine, OffloadDevice


class ForeignConsumer(Module):
    """Uses a parameter it does not own — the external-parameter scenario."""

    def __init__(self, foreign: Parameter):
        super().__init__()
        self._foreign = foreign  # deliberately NOT registered as attribute

    def forward(self, x):
        return x @ self._foreign.data.T

    def _backward(self, g):
        # intentionally no grad handling: tests focus on gather behaviour
        return g @ self._foreign.data


class BiasReturner(Module):
    """Megatron-style: returns a parameter from forward (Sec. 7.1.1)."""

    def __init__(self, rng):
        super().__init__()
        self.lin = Linear(4, 4, rng=rng)

    def forward(self, x):
        return self.lin(x), self.lin._parameters["bias"]

    def _backward(self, g):
        return self.lin.backward(g)


def build_coordinator(model, world=2):
    cfg = ZeroConfig(world_size=world, stage=ZeroStage.PARAMETERS, loss_scale=1.0)
    offload = InfinityOffloadEngine(OffloadConfig())
    part = ParameterPartitioner(world, offload=offload)
    for m in model.modules():
        part.group_module(m, partition=True)
    comm = ProcessGroup(world)
    coord = ParameterCoordinator(
        model, cfg, partitioner=part, offload=offload, comm=comm
    )
    return coord, part, offload


class TestManualRegistration:
    def test_registered_param_gathers_with_consumer(self, rng):
        owner = Linear(4, 4, rng=seeded_rng(0))
        holder = ForeignConsumer(owner._parameters["weight"])
        root = Module()
        root.owner = owner
        root.holder = holder
        coord, part, offload = build_coordinator(root)
        register_external_parameter(coord, holder, owner._parameters["weight"])
        x = rng.standard_normal((2, 4)).astype(np.float32)
        y = holder(x)  # hooks gather the foreign weight
        assert y.shape == (2, 4)
        # and release it again after forward
        assert owner._parameters["weight"].state is PartitionState.PARTITIONED
        offload.close()

    def test_double_registration_is_idempotent(self):
        owner = Linear(4, 4, rng=seeded_rng(0))
        w = owner._parameters["weight"]
        holder = ForeignConsumer(w)
        root = Module()
        root.owner = owner
        root.holder = holder
        coord, part, offload = build_coordinator(root)
        register_external_parameter(coord, holder, w)
        register_external_parameter(coord, holder, w)
        assert len(coord.external_registry) == 1
        offload.close()


class TestAccessInterception:
    def test_touch_gathers_and_registers(self, rng):
        """'When a partitioned parameter is accessed, we do a blocking
        allgather ... register it ... and return the gathered parameter.'"""
        lin = Linear(4, 4, rng=seeded_rng(0))
        root = Module()
        root.lin = lin
        coord, part, offload = build_coordinator(root)
        coord.remove_hooks()  # simulate a code path the hooks don't cover
        install_parameter_interception(root, coord)
        w = lin.weight  # attribute access -> dict __getitem__ -> intercept
        assert w.state is PartitionState.AVAILABLE
        registered = coord.external_registry.params_for(lin)
        assert len(coord.external_registry) == 1 and registered[0] is w
        assert w.data.shape == (4, 4)
        offload.close()

    def test_available_param_untouched(self, rng):
        lin = Linear(4, 4, rng=seeded_rng(0))
        root = Module()
        root.lin = lin
        cfg = ZeroConfig(world_size=2, stage=ZeroStage.PARAMETERS, loss_scale=1.0)
        offload = InfinityOffloadEngine(OffloadConfig())
        part = ParameterPartitioner(2, offload=offload)
        comm = ProcessGroup(2)
        coord = ParameterCoordinator(
            root, cfg, partitioner=part, offload=offload, comm=comm
        )
        install_parameter_interception(root, coord)
        _ = lin.weight  # never partitioned: no registration
        assert len(coord.external_registry) == 0
        offload.close()

    def test_interception_is_installed_once(self, rng):
        from repro.core.external import InterceptingParameterDict

        lin = Linear(4, 4, rng=seeded_rng(0))
        root = Module()
        root.lin = lin
        coord, part, offload = build_coordinator(root)
        install_parameter_interception(root, coord)
        first = lin._parameters
        install_parameter_interception(root, coord)
        assert lin._parameters is first
        assert isinstance(first, InterceptingParameterDict)
        offload.close()


class TestActivationIntrospection:
    def test_returned_parameter_detected(self, rng):
        mod = BiasReturner(seeded_rng(0))
        root = Module()
        root.mod = mod
        coord, part, offload = build_coordinator(root)
        install_activation_introspection(root, coord)
        x = rng.standard_normal((2, 4)).astype(np.float32)
        out, bias = mod(x)
        assert isinstance(bias, Parameter)
        assert bias.state is PartitionState.AVAILABLE  # gathered on detection
        registered = coord.external_registry.params_for(mod)
        assert any(p is bias for p in registered)
        offload.close()


class TestTiedWeightsEndToEnd:
    def test_gpt_tied_embedding_trains_with_zero3(self):
        """The GPT tied embedding is the paper's canonical external
        parameter; training must handle its cross-module gradient."""

        def factory():
            cfg = TransformerConfig(
                num_layers=1,
                hidden_dim=16,
                num_heads=2,
                vocab_size=32,
                max_seq=8,
                tie_embeddings=True,
            )
            return GPTModel(cfg, rng=seeded_rng(3))

        zcfg = ZeroConfig(
            world_size=2,
            stage=ZeroStage.PARAMETERS,
            offload=OffloadConfig(param_device=OffloadDevice.NVME),
            loss_scale=1.0,
        )
        rng = seeded_rng(1)
        batches = [
            (rng.integers(0, 32, (2, 4)), rng.integers(0, 32, (2, 4)))
            for _ in range(2)
        ]
        with ZeroInfinityEngine(zcfg, model_factory=factory, lr=1e-2) as eng:
            # the tied weight appears once in the optimizer
            names = [n for n, _ in eng.model.named_parameters()]
            assert len(names) == len(set(names))
            r1 = eng.train_step(batches)
            r2 = eng.train_step(batches)
            assert np.isfinite(r1.mean_loss) and np.isfinite(r2.mean_loss)
            assert r2.mean_loss < r1.mean_loss  # tied grads actually applied
