import os
from types import SimpleNamespace

import numpy as np
import pytest

from zsgen import nn
from zsgen.errors import ConfigError, UsageError
from zsgen.nn import (
    AdamState, Layer, Mlp, activate, adam_step, glorot_init, gradient_check,
    init_mlp, mlp_backward, mlp_forward, pack, unflatten,
)


def single_layer(weight, bias, activation):
    return Mlp([Layer(np.array(weight, dtype=float),
                      np.array(bias, dtype=float), activation)])


def test_forward_identity_layer():
    mlp = single_layer(np.eye(2), [0.0, 0.0], "identity")
    out, _ = mlp_forward(mlp, np.array([[1.0, 2.0]]))
    np.testing.assert_array_equal(out, [[1.0, 2.0]])


def test_forward_relu_clamps_negative_preactivation():
    mlp = single_layer([[2.0]], [1.0], "relu")
    out, _ = mlp_forward(mlp, np.array([[-3.0]]))
    np.testing.assert_array_equal(out, [[0.0]])


def test_forward_matches_hand_rolled_two_layer_net():
    rng = np.random.default_rng(3)
    mlp = init_mlp([3, 4, 2], ["leaky_relu", "tanh"], rng)
    x = rng.normal(size=(5, 3))
    out, _ = mlp_forward(mlp, x)

    z1 = x @ mlp.layers[0].weight + mlp.layers[0].bias
    h1 = np.where(z1 >= 0.0, z1, 0.2 * z1)
    z2 = h1 @ mlp.layers[1].weight + mlp.layers[1].bias
    np.testing.assert_allclose(out, np.tanh(z2), rtol=0, atol=1e-15)


def test_forward_rejects_dimension_mismatch():
    mlp = single_layer(np.eye(2), [0.0, 0.0], "identity")
    with pytest.raises(ConfigError):
        mlp_forward(mlp, np.zeros((1, 3)))


def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(0)
    mlp = init_mlp([3, 4, 2], ["relu", "identity"], rng)
    out, cache = mlp_forward(mlp, rng.normal(size=(6, 3)))
    grads, d_in = mlp_backward(mlp, cache, np.zeros_like(out))
    for g in grads:
        assert not g.any()
    assert not d_in.any()


def test_backward_scalar_linear_gradient_is_input():
    mlp = single_layer([[1.5]], [0.0], "identity")
    x = np.array([[4.0]])
    _, cache = mlp_forward(mlp, x)
    grads, _ = mlp_backward(mlp, cache, np.array([[1.0]]))
    np.testing.assert_array_equal(grads[0], [[4.0]])
    np.testing.assert_array_equal(grads[1], [1.0])


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(1)
    mlp = init_mlp([4, 5, 3], ["leaky_relu", "tanh"], rng)
    x = rng.normal(size=(3, 4))
    target = rng.normal(size=(3, 3))

    def f():
        out, cache = mlp_forward(mlp, x)
        diff = out - target
        grads, _ = mlp_backward(mlp, cache, 2.0 * diff)
        return float((diff * diff).sum()), grads

    assert gradient_check(f, mlp.param_arrays()) < 1e-4


def test_backward_rejects_stale_cache():
    rng = np.random.default_rng(2)
    mlp = init_mlp([3, 2], ["identity"], rng)
    out, cache = mlp_forward(mlp, rng.normal(size=(2, 3)))
    other = init_mlp([3, 4, 2], ["relu", "identity"], rng)
    with pytest.raises(UsageError):
        mlp_backward(other, cache, np.zeros_like(out))


def test_adam_zero_gradient_leaves_params_bit_identical():
    rng = np.random.default_rng(0)
    mlp = init_mlp([3, 2], ["identity"], rng)
    params = pack([mlp])
    before = params.copy()
    state = AdamState.for_params(params)
    adam_step(params, np.zeros_like(params), state)
    assert (params == before).all()


def test_adam_single_step_hand_value():
    p = np.array([0.0])
    state = AdamState.for_params(p, alpha=0.001, beta1=0.5, beta2=0.9)
    adam_step(p, np.array([1.0]), state)
    # bias correction makes m_hat = v_hat = 1 exactly after one unit-gradient step
    np.testing.assert_allclose(p, [-0.001 / (1.0 + 1e-8)], rtol=0, atol=1e-18)


def test_adam_two_steps_match_hand_recursion():
    p = np.array([0.2])
    state = AdamState.for_params(p, alpha=0.01, beta1=0.5, beta2=0.9)
    g = np.array([0.7])
    adam_step(p, g.copy(), state)
    adam_step(p, g.copy(), state)

    ref, m, v = 0.2, 0.0, 0.0
    for t in (1, 2):
        m = 0.5 * m + 0.5 * 0.7
        v = 0.9 * v + 0.1 * 0.7 * 0.7
        m_hat = m / (1.0 - 0.5 ** t)
        v_hat = v / (1.0 - 0.9 ** t)
        ref -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(p, [ref], rtol=0, atol=1e-15)


def reference_adam_step(params, grads, state):
    """The allocating Adam update that adam_step replaced, kept as its oracle:
    one update per array of a list, with per-array moment lists in state."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** state.t)
        v_hat = v / (1.0 - b2 ** state.t)
        p -= state.alpha * m_hat / (np.sqrt(v_hat) + state.epsilon)


def test_adam_in_place_bit_identical_to_reference():
    rng = np.random.default_rng(8)
    mlp = init_mlp([5, 7, 3], ["leaky_relu", "tanh"], rng)
    ref_params = [p.copy() for p in mlp.param_arrays()]
    params = pack([mlp])
    settings = dict(alpha=0.003, beta1=0.5, beta2=0.9)
    state = AdamState.for_params(params, **settings)
    ref_state = SimpleNamespace(**settings, epsilon=state.epsilon, t=0,
                                m=[np.zeros_like(p) for p in ref_params],
                                v=[np.zeros_like(p) for p in ref_params])
    ids = [id(a) for a in (params, state.m, state.v)]
    for step in range(50):
        # every scale, a zero gradient and a sparse one included
        grads = [rng.normal(size=p.shape) * 10.0 ** rng.integers(-8, 4) for p in ref_params]
        if step % 7 == 0:
            grads[0][:] = 0.0
        flat_grads = np.concatenate([g.ravel() for g in grads])
        grads_before = flat_grads.copy()
        adam_step(params, flat_grads, state)
        reference_adam_step(ref_params, grads, ref_state)
        assert (flat_grads == grads_before).all()
        for got, ref in [(params, ref_params), (state.m, ref_state.m), (state.v, ref_state.v)]:
            assert got.tobytes() == b"".join(r.tobytes() for r in ref)
    assert [id(a) for a in (params, state.m, state.v)] == ids
    # the layers still view the updated vector
    assert all(np.shares_memory(p, params) for p in mlp.param_arrays())


def test_adam_chunked_update_bit_identical_to_reference(monkeypatch):
    # chunks that split layers and end mid-array give the same bytes
    monkeypatch.setattr(nn, "ADAM_CHUNK", 7)
    test_adam_in_place_bit_identical_to_reference()


def test_adam_rejects_shape_mismatch():
    p = np.zeros(3)
    state = AdamState.for_params(p)
    with pytest.raises(UsageError):
        adam_step(p, np.zeros(2), state)


def test_gradient_check_quadratic_loss_is_tight():
    rng = np.random.default_rng(5)
    mlp = init_mlp([3, 2], ["identity"], rng)
    x = rng.normal(size=(4, 3))

    def f():
        out, cache = mlp_forward(mlp, x)
        grads, _ = mlp_backward(mlp, cache, 2.0 * out)
        return float((out * out).sum()), grads

    assert gradient_check(f, mlp.param_arrays()) < 1e-6


def test_activation_ranges():
    z = np.linspace(-5.0, 5.0, 101)
    assert (activate("relu", z) >= 0.0).all()
    t = activate("tanh", z)
    assert ((t > -1.0) & (t < 1.0)).all()


# random values and the edge cases of every activation, one per row
EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308]
ACTIVATION_CASES = [("identity", 0.2), ("relu", 0.2), ("leaky_relu", 0.2),
                    ("leaky_relu", 0.5), ("leaky_relu", 1.0), ("tanh", 0.2)]


def edge_values():
    rng = np.random.default_rng(12)
    return np.concatenate([rng.normal(scale=3.0, size=40), EDGES])[:, None]


def where_leaky_relu(z, slope):
    """The leaky relu as it used to be written: z where z >= 0, else slope * z."""
    return np.where(z >= 0.0, z, slope * z)


@pytest.mark.parametrize("slope", [0.2, 0.5, 1.0])
def test_leaky_relu_is_bitwise_the_where_form(slope):
    z = edge_values()
    assert activate("leaky_relu", z, slope).tobytes() == where_leaky_relu(z, slope).tobytes()


@pytest.mark.parametrize("name, slope", ACTIVATION_CASES)
def test_activation_in_place_is_bitwise_the_new_array(name, slope):
    z = edge_values()
    fresh = activate(name, z, slope)
    written = z.copy()
    assert activate(name, written, slope, in_place=True) is written
    assert written.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("name, slope", ACTIVATION_CASES)
def test_cacheless_forward_is_bitwise_the_cached_one(name, slope):
    # a unit weight passes ±inf and NaN through to the activation
    mlp = Mlp([Layer(np.ones((1, 1)), np.zeros(1), name, slope)])
    x = edge_values()
    before = x.copy()
    cached, cache = mlp_forward(mlp, x)
    bare, none = mlp_forward(mlp, x, keep_cache=False)
    assert none is None and cache
    assert bare.tobytes() == cached.tobytes()
    assert x.tobytes() == before.tobytes()


def test_cacheless_forward_writes_its_last_layer_into_out():
    rng = np.random.default_rng(13)
    mlp = init_mlp([3, 6, 5, 4], ["relu", "leaky_relu", "tanh"], rng, slope=0.3)
    x = rng.normal(size=(9, 3))
    before = x.copy()
    cached, _ = mlp_forward(mlp, x)
    out = np.full((9, 4), np.nan)
    got, cache = mlp_forward(mlp, x, keep_cache=False, out=out)
    assert got is out and cache is None
    assert out.tobytes() == cached.tobytes()
    assert x.tobytes() == before.tobytes()
    # an identity network returns its input's product, never the input
    ident = init_mlp([3, 3], ["identity"], rng)
    assert not np.shares_memory(mlp_forward(ident, x, keep_cache=False)[0], x)
    assert x.tobytes() == before.tobytes()
    with pytest.raises(UsageError):
        mlp_forward(mlp, x, out=out)


@pytest.mark.parametrize("slope", [0.0, -0.2, 1.5, np.nan, np.inf])
def test_leaky_relu_slope_outside_unit_interval_rejected(slope):
    with pytest.raises(ConfigError, match="slope"):
        Layer(np.eye(2), np.zeros(2), "leaky_relu", slope)
    with pytest.raises(ConfigError, match="slope"):
        activate("leaky_relu", np.ones(3), slope)
    # activations that read no slope do not check it
    Layer(np.eye(2), np.zeros(2), "relu", slope)


def test_glorot_bounds():
    rng = np.random.default_rng(0)
    w = glorot_init(rng, 30, 50)
    bound = np.sqrt(6.0 / 80.0)
    assert (np.abs(w) <= bound).all()


def test_init_mlp_zero_biases_and_dims():
    rng = np.random.default_rng(0)
    mlp = init_mlp([7, 5, 3], ["relu", "tanh"], rng)
    assert mlp.in_dim == 7 and mlp.out_dim == 3
    for layer in mlp.layers:
        assert not layer.bias.any()


def test_layer_validation():
    with pytest.raises(ConfigError):
        Layer(np.zeros((2, 3)), np.zeros(2), "identity")
    with pytest.raises(ConfigError):
        Layer(np.zeros((2, 2)), np.zeros(2), "swish")
    with pytest.raises(ConfigError):
        Layer(np.full((2, 2), np.nan), np.zeros(2), "identity")


def test_pack_moves_parameters_into_one_vector_of_views():
    rng = np.random.default_rng(4)
    a = init_mlp([3, 4, 2], ["relu", "tanh"], rng)
    b = init_mlp([2, 5], ["identity"], rng)
    before = [p.copy() for p in a.param_arrays() + b.param_arrays()]
    flat = pack([a, b])
    assert flat.flags.c_contiguous and flat.size == sum(p.size for p in before)
    np.testing.assert_array_equal(flat, np.concatenate([p.ravel() for p in before]))
    views = a.param_arrays() + b.param_arrays()
    for got, ref in zip(views, before):
        assert (got == ref).all() and np.shares_memory(got, flat)
    flat[:] = np.arange(flat.size)
    shapes = [p.shape for p in views]
    for got, via in zip(views, unflatten(flat, shapes)):
        assert got.shape == via.shape and (got == via).all()
    with pytest.raises(UsageError):
        unflatten(flat[1:], shapes)


def test_backward_skips_what_is_not_asked_for():
    rng = np.random.default_rng(6)
    mlp = init_mlp([3, 4, 2], ["leaky_relu", "tanh"], rng)
    out, cache = mlp_forward(mlp, rng.normal(size=(5, 3)))
    d_out = rng.normal(size=out.shape)
    grads, d_in = mlp_backward(mlp, cache, d_out)
    into = [np.full_like(p, np.nan) for p in mlp.param_arrays()]
    written, no_input = mlp_backward(mlp, cache, d_out, into, input_grad=False)
    assert written is into and no_input is None
    for g, w in zip(grads, into):
        assert g.tobytes() == w.tobytes()
    no_params, d_only = mlp_backward(mlp, cache, d_out, param_grads=False)
    assert no_params is None and d_only.tobytes() == d_in.tobytes()


def _rss_kb():
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_adam_moments_take_no_memory_before_the_first_step():
    params = np.zeros(1 << 22)   # 32 MiB, itself never written
    before = _rss_kb()
    state = AdamState.for_params(params)
    grown_kb = _rss_kb() - before
    assert grown_kb < 4 * 1024, f"VmRSS grew {grown_kb} kB"
    for moment in (state.m, state.v):
        assert moment.dtype == np.float64 and moment.shape == params.shape
        assert not moment.any()


@pytest.mark.parametrize("shapes, largest", [
    # under one Adam chunk in all: one block, whatever its arrays
    ([(32, 64), (64,), (64, 32), (32,)], 4192),
    # two parts of about 400k values fit one block together, but no block
    # is larger than the largest array
    ([(3999, 100), (100,), (100, 1990), (1990,), (1990, 100), (100,)], 3999 * 100),
    # an array past the block is cut into runs of rows
    ([(5000, 1000), (1000,)], nn.GRAD_BLOCK_VALUES),
])
def test_a_gradient_block_is_at_most_the_largest_array_past_one_adam_chunk(shapes, largest):
    size, got, blocks = nn._grad_blocks(shapes, False)
    assert size == sum(np.prod(s) for s in shapes) and got <= largest
    assert [b[:2] for b in blocks] == sorted(b[:2] for b in blocks)
    assert blocks[0][0] == 0 and blocks[-1][1] == size
    assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    if size <= nn.ADAM_CHUNK:
        assert len(blocks) == 1
