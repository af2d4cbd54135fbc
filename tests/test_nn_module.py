"""Module tree, hooks, parameter registry, and leaf layers."""

import numpy as np
import pytest

from repro.nn import (
    Dropout,
    Embedding,
    GELU,
    LayerNorm,
    Linear,
    Module,
    Parameter,
)
from repro.nn.parameter import ParameterDict, PartitionState
from repro.utils.rng import seeded_rng


class TestParameter:
    def test_grad_accumulation(self):
        p = Parameter(np.zeros((2, 2), dtype=np.float32))
        p.accumulate_grad(np.ones((2, 2), dtype=np.float32))
        p.accumulate_grad(np.ones((2, 2), dtype=np.float32))
        np.testing.assert_array_equal(p.grad, 2 * np.ones((2, 2)))

    def test_first_gradient_is_adopted_when_it_can_be(self):
        """An owning, contiguous, same-dtype array becomes ``.grad`` itself
        (ownership passes to the parameter); the next one adds in place."""
        p = Parameter(np.zeros((2, 2), dtype=np.float32))
        g = np.ones((2, 2), dtype=np.float32)
        p.accumulate_grad(g)
        assert p.grad is g
        p.accumulate_grad(np.ones((2, 2), dtype=np.float32))
        assert p.grad is g
        np.testing.assert_array_equal(g, 2 * np.ones((2, 2)))

    @pytest.mark.parametrize(
        "grad",
        [
            np.ones((4, 2), dtype=np.float32)[:2],  # a view: someone else's memory
            np.ones((2, 2), dtype=np.float32).T,  # owns nothing, not C-contiguous
            np.ones((2, 2), dtype=np.float64),  # not the parameter's dtype
        ],
        ids=["view", "transposed", "other-dtype"],
    )
    def test_first_gradient_is_copied_otherwise(self, grad):
        p = Parameter(np.zeros((2, 2), dtype=np.float32))
        before = grad.copy()
        p.accumulate_grad(grad)
        assert not np.shares_memory(p.grad, grad)
        assert p.grad.dtype == np.float32
        p.accumulate_grad(grad)
        np.testing.assert_array_equal(grad, before)  # the caller's is untouched
        np.testing.assert_array_equal(p.grad, 2 * before)

    def test_grad_shape_mismatch_raises(self):
        p = Parameter(np.zeros(3))
        with pytest.raises(ValueError):
            p.accumulate_grad(np.zeros(4))

    #: a weight whose gradient is worth recycling: exactly the size floor
    BIG = (512, 512)

    def test_gradient_arrays_are_recycled_once_a_kernel_asks(self):
        from repro.nn.parameter import GRAD_RECYCLE_MIN_BYTES

        p = Parameter(np.zeros(self.BIG, dtype=np.float32))
        assert p.nbytes == GRAD_RECYCLE_MIN_BYTES
        g = np.ones(self.BIG, dtype=np.float32)
        assert not p.accepts_grad(g)  # nobody writes into arrays yet
        assert p.grad_out() is None  # the first ask opts in; nothing to give
        assert p.accepts_grad(g)
        p.recycle_grad(g, limit=2)
        p.recycle_grad(g, limit=2)  # the same array is kept once
        h = np.ones(self.BIG, dtype=np.float32)
        p.recycle_grad(h, limit=2)
        p.recycle_grad(np.ones(self.BIG, dtype=np.float32), limit=2)  # over the limit
        assert p.grad_out(scratch=True) is h  # lent: still available
        assert p.grad_out() is h
        assert p.grad_out() is g
        assert p.grad_out() is None
        p.recycle_grad(g, limit=2)
        p.drop_recycled_grads()
        assert p.grad_out() is None and p.accepts_grad(g)

    @pytest.mark.parametrize(
        "array",
        [
            np.ones((1024, 512), dtype=np.float32)[:512],
            np.ones((512, 512), dtype=np.float32).T,
            np.ones((512, 512), dtype=np.float64),
            np.ones(512 * 512, dtype=np.float32),
        ],
        ids=["view", "transposed", "other-dtype", "other-shape"],
    )
    def test_only_what_would_be_adopted_is_recycled(self, array):
        p = Parameter(np.zeros(self.BIG, dtype=np.float32))
        p.grad_out()
        assert not p.accepts_grad(array)

    def test_small_gradients_are_left_to_the_allocator(self):
        p = Parameter(np.zeros((512, 511), dtype=np.float32))
        p.grad_out()
        assert not p.accepts_grad(np.ones((512, 511), dtype=np.float32))

    def test_linear_backward_writes_into_a_recycled_array(self):
        layer = Linear(512, 512, bias=False)
        x = np.ones((4, 512), dtype=np.float32)
        layer.backward(np.ones_like(layer(x)))
        first, layer.weight.grad = layer.weight.grad, None
        want = first.copy()
        first[...] = 7
        assert layer.weight.accepts_grad(first)
        layer.weight.recycle_grad(first, limit=1)
        layer.backward(np.ones_like(layer(x)))
        assert layer.weight.grad is first
        np.testing.assert_array_equal(first, want)

    def test_no_grad_when_frozen(self):
        p = Parameter(np.zeros(3), requires_grad=False)
        p.accumulate_grad(np.ones(3))
        assert p.grad is None

    def test_unique_ids(self):
        a, b = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        assert a.unique_id != b.unique_id

    def test_initial_state_available(self):
        assert Parameter(np.zeros(1)).state is PartitionState.AVAILABLE

    def test_zero_grad(self):
        p = Parameter(np.zeros(2))
        p.accumulate_grad(np.ones(2))
        p.zero_grad()
        assert p.grad is None


class TestParameterDict:
    def test_touched_hook(self):
        touches = []

        class Spy(ParameterDict):
            def touched(self, key, param):
                touches.append(key)
                return param

        d = Spy()
        d["w"] = Parameter(np.zeros(1))
        _ = d["w"]
        assert touches == ["w"]

    def test_values_bypass_hook(self):
        """Internal traversal must not trigger access interception."""
        touches = []

        class Spy(ParameterDict):
            def touched(self, key, param):
                touches.append(key)
                return param

        d = Spy()
        d["w"] = Parameter(np.zeros(1))
        list(d.values())
        list(d.items())
        assert touches == []


class Doubler(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.array([2.0]))

    def forward(self, x):
        return x * self.weight.data

    def _backward(self, g):
        return g * self.weight.data


class Sequential(Module):
    """Test container: run submodules in order, backward in reverse."""

    def __init__(self, *mods: Module) -> None:
        super().__init__()
        self._order: list[str] = []
        for i, m in enumerate(mods):
            name = str(i)
            setattr(self, name, m)
            self._order.append(name)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, i: int) -> Module:
        return self._modules[self._order[i]]

    def forward(self, x):
        for name in self._order:
            x = self._modules[name](x)
        return x

    def _backward(self, grad):
        for name in reversed(self._order):
            grad = self._modules[name].backward(grad)
        return grad


class TestModuleTree:
    def test_attribute_registration(self):
        m = Doubler()
        assert "weight" in m._parameters
        assert m.weight.data[0] == 2.0

    def test_submodule_registration(self):
        outer = Sequential(Doubler(), Doubler())
        names = [n for n, _ in outer.named_modules()]
        assert "" in names and "0" in names and "1" in names

    def test_named_parameters_hierarchical(self):
        seq = Sequential(Doubler(), Doubler())
        names = [n for n, _ in seq.named_parameters()]
        assert names == ["0.weight", "1.weight"]

    def test_tied_parameters_deduplicated(self):
        a, b = Doubler(), Doubler()
        b.weight = a.weight  # tie
        seq = Sequential(a, b)
        assert len(list(seq.named_parameters())) == 1
        assert seq.num_parameters() == 1

    def test_missing_attribute_raises(self):
        with pytest.raises(AttributeError):
            Doubler().nonexistent

    def test_train_eval_propagates(self):
        seq = Sequential(Doubler(), Sequential(Doubler()))
        seq.eval()
        assert all(not m.training for m in seq.modules())
        seq.train()
        assert all(m.training for m in seq.modules())

    def test_zero_grad_recursive(self):
        seq = Sequential(Doubler(), Doubler())
        for p in seq.parameters():
            p.accumulate_grad(np.ones(1))
        seq.zero_grad()
        assert all(p.grad is None for p in seq.parameters())

    def test_name_parameters_assigns(self):
        seq = Sequential(Doubler())
        seq.name_parameters()
        assert seq[0].weight.name == "0.weight"


class TestHooks:
    def test_forward_hook_ordering(self):
        events = []
        m = Doubler()
        m.register_forward_pre_hook(lambda mod, args: events.append("pre"))
        m.register_forward_hook(lambda mod, args, out: events.append("post"))
        m(np.array([1.0]))
        assert events == ["pre", "post"]

    def test_forward_hook_can_replace_output(self):
        m = Doubler()
        m.register_forward_hook(lambda mod, args, out: out + 100)
        assert m(np.array([1.0]))[0] == 102.0

    def test_backward_hooks_fire(self):
        events = []
        m = Doubler()
        m.register_backward_pre_hook(lambda mod, g: events.append("bpre"))
        m.register_backward_hook(lambda mod, g: events.append("bpost"))
        m(np.array([1.0]))
        m.backward(np.array([1.0]))
        assert events == ["bpre", "bpost"]

    def test_hook_removal(self):
        events = []
        m = Doubler()
        remove = m.register_forward_pre_hook(lambda mod, args: events.append(1))
        m(np.array([1.0]))
        remove()
        m(np.array([1.0]))
        assert len(events) == 1

    def test_sequential_fires_per_submodule(self):
        count = [0]
        seq = Sequential(Doubler(), Doubler(), Doubler())
        for i in range(3):
            seq[i].register_forward_pre_hook(lambda m, a: count.__setitem__(0, count[0] + 1))
        seq(np.array([1.0]))
        assert count[0] == 3


class TestLinearLayer:
    def test_shapes(self, rng):
        lin = Linear(4, 7, rng=rng)
        y = lin(rng.standard_normal((2, 3, 4)))
        assert y.shape == (2, 3, 7)

    def test_backward_accumulates_param_grads(self, rng):
        lin = Linear(4, 3, rng=rng)
        y = lin(rng.standard_normal((2, 4)))
        lin.backward(np.ones_like(y))
        assert lin.weight.grad is not None
        assert lin.bias.grad is not None

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Linear(2, 2, rng=rng).backward(np.ones((1, 2)))

    def test_no_bias_variant(self, rng):
        lin = Linear(4, 3, bias=False, rng=rng)
        assert len(lin.direct_parameters()) == 1

    def test_cache_consumed(self, rng):
        lin = Linear(2, 2, rng=rng)
        y = lin(rng.standard_normal((1, 2)))
        lin.backward(np.ones_like(y))
        with pytest.raises(RuntimeError):
            lin.backward(np.ones_like(y))

    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            Linear(0, 5)


class TestOtherLayers:
    def test_layernorm_grad_flow(self, rng):
        ln = LayerNorm(8)
        y = ln(rng.standard_normal((2, 8)))
        g = ln.backward(np.ones_like(y))
        assert g.shape == (2, 8)
        assert ln.gain.grad is not None

    def test_embedding_no_input_grad(self, rng):
        emb = Embedding(10, 4, rng=rng)
        y = emb(np.array([[1, 2]]))
        assert emb.backward(np.ones_like(y)) is None
        assert emb.weight.grad is not None

    def test_gelu_stateless_params(self):
        assert GELU().direct_parameters() == []

    def test_dropout_deterministic_with_seed(self):
        d1 = Dropout(0.5, rng=seeded_rng(3))
        d2 = Dropout(0.5, rng=seeded_rng(3))
        x = np.ones((10, 10))
        np.testing.assert_array_equal(d1(x), d2(x))
