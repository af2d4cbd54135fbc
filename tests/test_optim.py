"""Mixed-precision Adam and loss scaling."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.zero_optimizer import ZeroPartitionedAdam
from repro.nn.parameter import Parameter
from repro.optim import Adam, AdamState, DynamicLossScaler, StaticLossScaler, adam_step
from repro.optim.adam import TILE_NUMEL


def reference_adam_step(
    master, grad, exp_avg, exp_avg_sq, *,
    step, lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0,
):
    """Adam(W) as whole-buffer NumPy expressions: the formula the tiled
    kernel replaced, kept here as the arithmetic it must reproduce bit for
    bit (same operations, same order, one shard-sized temporary each)."""
    g = grad.astype(np.float32, copy=False)
    exp_avg *= beta1
    exp_avg += (1.0 - beta1) * g
    exp_avg_sq *= beta2
    exp_avg_sq += (1.0 - beta2) * np.square(g)
    bias1 = 1.0 - beta1**step
    bias2 = 1.0 - beta2**step
    denom = np.sqrt(exp_avg_sq / bias2) + eps
    if weight_decay:
        master -= lr * weight_decay * master
    master -= (lr / bias1) * (exp_avg / denom)


def _bits(arrays):
    return [a.tobytes() for a in arrays]


class TestTiledKernelMatchesReference:
    """The kernel against the passes it folded in, as they used to be
    written around the reference: upcast copy, in-place unscale, whole-
    buffer update, cast into a fresh parameter buffer."""

    @pytest.mark.parametrize(
        "n", [1, TILE_NUMEL - 1, TILE_NUMEL, TILE_NUMEL + 1, 3 * TILE_NUMEL + 7]
    )
    @pytest.mark.parametrize("grad_dtype", [np.float16, np.float32])
    @pytest.mark.parametrize("param_dtype", [np.float16, np.float32])
    @pytest.mark.parametrize("grad_scale", [1.0, 128.0, 3.7])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_bit_identical_over_three_steps(
        self, n, grad_dtype, param_dtype, grad_scale, weight_decay
    ):
        rng = np.random.default_rng(n)
        # offset, non-owning views: the kernel must not assume alignment
        # or ownership of what it updates
        arena = np.zeros((3, n + 5), dtype=np.float32)
        ours = [arena[i, 3 : 3 + n] for i in range(3)]
        ours[0][:] = rng.standard_normal(n)
        ref = [a.copy() for a in ours]
        out = np.zeros(n + 2, dtype=param_dtype)[2:]
        for step in (1, 2, 3):
            grad = (rng.standard_normal(n) * grad_scale).astype(grad_dtype)
            grad[::5] = -0.0
            pristine = grad.copy()
            g = grad.astype(np.float32)
            if grad_scale != 1.0:
                g /= grad_scale
            reference_adam_step(
                ref[0], g, ref[1], ref[2],
                step=step, lr=1e-2, weight_decay=weight_decay,
            )
            ref_out = np.empty(n, dtype=param_dtype)
            ref_out[:] = ref[0]
            adam_step(
                ours[0], grad, ours[1], ours[2],
                step=step, lr=1e-2, weight_decay=weight_decay,
                grad_scale=grad_scale, param_out=out,
            )
            assert grad.tobytes() == pristine.tobytes(), "gradient mutated"
            assert _bits(ours) == _bits(ref)
            assert out.tobytes() == ref_out.tobytes()

    def test_short_param_out_covers_only_real_parameters(self):
        """The last rank's shard is zero-padded past the parameter's end;
        ``param_out`` is the unpadded slice."""
        n = TILE_NUMEL + 9
        rng = np.random.default_rng(0)
        state = [rng.standard_normal(n).astype(np.float32), np.zeros(n, np.float32),
                 np.zeros(n, np.float32)]
        grad = rng.standard_normal(n).astype(np.float32)
        for short in (0, 4, TILE_NUMEL, n - 1):
            mine = [a.copy() for a in state]
            out = np.full(short, 7.0, dtype=np.float16)
            adam_step(*mine[:1], grad, *mine[1:], step=1, lr=1e-2, param_out=out)
            np.testing.assert_array_equal(out, mine[0][:short].astype(np.float16))

    def test_invalid_step_raises_with_folded_passes(self):
        z = np.zeros(2, dtype=np.float32)
        with pytest.raises(ValueError):
            adam_step(
                z, z, z.copy(), z.copy(),
                step=0, lr=0.1, grad_scale=2.0, param_out=z.copy(),
            )


class TestAdamStep:
    def test_matches_reference_implementation(self):
        """Hand-rolled Adam reference (Kingma & Ba Algorithm 1)."""
        rng = np.random.default_rng(0)
        master = rng.standard_normal(16).astype(np.float32)
        grads = [rng.standard_normal(16).astype(np.float32) for _ in range(5)]
        ours = master.copy()
        m = np.zeros_like(master)
        v = np.zeros_like(master)
        # reference
        ref = master.copy().astype(np.float64)
        rm = np.zeros_like(ref)
        rv = np.zeros_like(ref)
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        for t, g in enumerate(grads, start=1):
            adam_step(ours, g, m, v, step=t, lr=lr, beta1=b1, beta2=b2, eps=eps)
            gd = g.astype(np.float64)
            rm = b1 * rm + (1 - b1) * gd
            rv = b2 * rv + (1 - b2) * gd * gd
            mhat = rm / (1 - b1**t)
            vhat = rv / (1 - b2**t)
            ref -= lr * mhat / (np.sqrt(vhat) + eps)
        np.testing.assert_allclose(ours, ref, rtol=1e-5)

    def test_weight_decay_decoupled(self):
        master = np.ones(4, dtype=np.float32)
        m = np.zeros(4, dtype=np.float32)
        v = np.zeros(4, dtype=np.float32)
        adam_step(
            master, np.zeros(4, dtype=np.float32), m, v,
            step=1, lr=0.1, weight_decay=0.5,
        )
        # zero grad: only decay applies -> 1 - 0.1*0.5 = 0.95
        np.testing.assert_allclose(master, 0.95, rtol=1e-6)

    def test_invalid_step_raises(self):
        z = np.zeros(2, dtype=np.float32)
        with pytest.raises(ValueError):
            adam_step(z, z, z.copy(), z.copy(), step=0, lr=0.1)

    @given(steps=st.integers(1, 50), lr=st.floats(1e-5, 1e-1))
    @settings(max_examples=30, deadline=None)
    def test_update_magnitude_bounded_by_lr(self, steps, lr):
        """|update| <= ~lr per step is Adam's signature property."""
        rng = np.random.default_rng(steps)
        master = np.zeros(8, dtype=np.float32)
        m = np.zeros_like(master)
        v = np.zeros_like(master)
        prev = master.copy()
        for t in range(1, steps + 1):
            g = rng.standard_normal(8).astype(np.float32)
            adam_step(master, g, m, v, step=t, lr=lr)
            assert np.max(np.abs(master - prev)) <= lr * 1.2
            prev = master.copy()


class TestAdamOptimizer:
    def _params(self, rng, n=3):
        return [Parameter(rng.standard_normal(4).astype(np.float32)) for _ in range(n)]

    def test_state_bytes_16_per_param(self, rng):
        """Sec. 3: momentum + variance + master = 12 bytes; we also count
        the fp32 master copy explicitly (AdamState holds 3 fp32 buffers)."""
        params = self._params(rng, 2)
        opt = Adam(params)
        state_bytes = sum(
            buf.nbytes
            for s in opt.state.values()
            for buf in (s.master, s.exp_avg, s.exp_avg_sq)
        )
        assert state_bytes == 2 * 4 * 3 * 4  # 2 params x 4 elems x 3 bufs x fp32

    def test_step_updates_and_casts_back(self, rng):
        p = Parameter(rng.standard_normal(4).astype(np.float16))
        opt = Adam([p], lr=0.1)
        p.accumulate_grad(np.ones(4, dtype=np.float16))
        before = p.data.copy()
        opt.step()
        assert p.data.dtype == np.float16
        assert not np.array_equal(before, p.data)

    def test_master_preserves_precision_across_steps(self, rng):
        """fp16 params + fp32 master: tiny updates must accumulate."""
        p = Parameter(np.ones(1, dtype=np.float16))
        opt = Adam([p], lr=1e-4)
        for t in range(100):
            p.accumulate_grad(np.full(1, 1.0, dtype=np.float16))
            opt.step()
            opt.zero_grad()
        master = opt.state[p.unique_id].master[0]
        assert master == pytest.approx(1.0 - 100 * 1e-4, rel=0.05)

    def test_grad_scale_division(self, rng):
        p1 = Parameter(np.zeros(4, dtype=np.float32))
        p2 = Parameter(np.zeros(4, dtype=np.float32))
        o1, o2 = Adam([p1], lr=0.1), Adam([p2], lr=0.1)
        p1.accumulate_grad(np.full(4, 2.0, dtype=np.float32))
        p2.accumulate_grad(np.full(4, 1024.0, dtype=np.float32))
        o1.step(grad_scale=1.0)
        o2.step(grad_scale=512.0)
        np.testing.assert_allclose(p1.data, p2.data, rtol=1e-6)

    def test_step_writes_in_place_and_leaves_grads_alone(self, rng):
        """One kernel call per parameter: the cast-back lands in the
        existing ``p.data`` buffer and ``p.grad`` is never rescaled."""
        p = Parameter(rng.standard_normal((3, 4)).astype(np.float16))
        opt = Adam([p], lr=0.1, grad_clip=0.5)
        p.accumulate_grad(np.full((3, 4), 64.0, dtype=np.float16))
        data, grad = p.data, p.grad.copy()
        opt.step(grad_scale=32.0)
        assert p.data is data
        np.testing.assert_array_equal(p.grad, grad)
        np.testing.assert_array_equal(
            p.data.reshape(-1), opt.state[p.unique_id].master.astype(np.float16)
        )

    def test_strided_param_data_is_still_updated(self, rng):
        p = Parameter(np.zeros((3, 4), dtype=np.float32))
        opt = Adam([p], lr=0.1)
        p.data = rng.standard_normal((4, 3)).astype(np.float32).T
        assert not p.data.flags.c_contiguous
        p.accumulate_grad(np.ones((3, 4), dtype=np.float32))
        before = p.data.copy()
        opt.step()
        assert p.data.shape == (3, 4)
        assert not np.array_equal(before, p.data)

    def test_skips_gradless_params(self, rng):
        params = self._params(rng, 2)
        opt = Adam(params, lr=0.1)
        params[0].accumulate_grad(np.ones(4, dtype=np.float32))
        before = params[1].data.copy()
        opt.step()
        np.testing.assert_array_equal(params[1].data, before)

    def test_gradient_clipping(self, rng):
        p = Parameter(np.zeros(4, dtype=np.float32))
        opt = Adam([p], lr=1.0, grad_clip=1.0)
        p.accumulate_grad(np.full(4, 100.0, dtype=np.float32))
        norm = opt.global_grad_norm()
        assert norm == pytest.approx(200.0)
        opt.step()  # clip prevents an explosive first step
        assert np.all(np.abs(p.data) <= 1.1)

    def test_empty_params_raise(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_bad_lr_raises(self, rng):
        with pytest.raises(ValueError):
            Adam(self._params(rng), lr=0)


class TestAdamState:
    def test_init_from_values(self, rng):
        vals = rng.standard_normal((2, 3)).astype(np.float16)
        st_ = AdamState.init(vals)
        assert st_.master.dtype == np.float32
        assert st_.master.shape == (6,)
        np.testing.assert_allclose(st_.master, vals.reshape(-1), rtol=1e-3)
        bufs = (st_.master, st_.exp_avg, st_.exp_avg_sq)
        assert sum(b.nbytes for b in bufs) == 3 * 6 * 4


class TestStaticLossScaler:
    def test_fixed_scale(self):
        s = StaticLossScaler(128.0)
        assert s.loss_scale == 128.0
        s.update(True)
        assert s.loss_scale == 128.0

    def test_invalid_scale_raises(self):
        with pytest.raises(ValueError):
            StaticLossScaler(0.0)


class TestDynamicLossScaler:
    def test_backoff_on_overflow(self):
        s = DynamicLossScaler(init_scale=1024.0)
        s.update(True)
        assert s.loss_scale == 512.0
        s.update(True)  # each overflow backs off again
        assert s.loss_scale == 256.0

    def test_growth_after_interval(self):
        s = DynamicLossScaler(init_scale=4.0, growth_interval=3)
        for _ in range(3):
            s.update(False)
        assert s.loss_scale == 8.0

    def test_overflow_resets_growth_counter(self):
        s = DynamicLossScaler(init_scale=4.0, growth_interval=2)
        s.update(False)
        s.update(True)  # back off and reset
        s.update(False)
        assert s.loss_scale == 2.0  # one good step: no growth yet

    def test_min_scale_floor(self):
        s = DynamicLossScaler(init_scale=2.0, min_scale=1.0)
        for _ in range(10):
            s.update(True)
        assert s.loss_scale == 1.0

    def test_overflow_detection(self):
        """The check the engine feeds the scaler: any inf or NaN in a stored
        gradient shard (``ZeroPartitionedAdam.grads_overflowed``)."""

        def overflowed(*shards) -> bool:
            optimizer = SimpleNamespace(_grad_shards=lambda: iter(shards))
            return ZeroPartitionedAdam.grads_overflowed(optimizer)

        assert overflowed(np.array([1.0, np.inf]))
        assert overflowed(np.array([np.nan]))
        assert not overflowed(np.array([1e30]), np.array([0.0]))

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            DynamicLossScaler(init_scale=-1)
        with pytest.raises(ValueError):
            DynamicLossScaler(growth_factor=1.0)
        with pytest.raises(ValueError):
            DynamicLossScaler(backoff_factor=1.5)
