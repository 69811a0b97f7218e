"""Dense MLP substrate: layers, forward/backward, Adam, gradient checking.

Everything is float64 numpy. Batches are row-major: one sample per row.
The backward pass returns gradients shaped exactly like the parameters, in
param_arrays order. `pack` moves a network's parameters into one contiguous
vector that its layers view; a gradient vector of the same layout (views
from `unflatten`) takes the backward's output, and Adam updates the whole
vector at once. A forward that keeps no cache, as generation runs it, applies
each activation in place and can write its last layer into the caller's array.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import bounded, check_bounds
from .errors import ConfigError, UsageError

ACTIVATIONS = ("identity", "relu", "leaky_relu", "tanh")


def _check_slope(slope):
    """A leaky relu slope must lie in (0, 1]: there max(z, slope * z) is z for
    z >= 0 and slope * z below, and at 0 it would make +inf a NaN."""
    if not 0.0 < slope <= 1.0:
        raise ConfigError(f"leaky relu slope must be in (0, 1], got {slope!r}")


def activate(name, z, slope=0.2, in_place=False):
    """The activation of pre-activation z; in_place writes it into z."""
    out = z if in_place else None
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0, out=out)
    if name == "leaky_relu":
        _check_slope(slope)
        return np.maximum(z, slope * z, out=out)
    if name == "tanh":
        return np.tanh(z, out=out)
    raise ConfigError(f"unknown activation {name!r}")


def activate_grad(name, z, slope=0.2):
    """d activation / d z evaluated at pre-activation z."""
    if name == "identity":
        return np.ones_like(z)
    if name == "relu":
        return (z >= 0.0).astype(np.float64)
    if name == "leaky_relu":
        return np.where(z >= 0.0, 1.0, slope)
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    raise ConfigError(f"unknown activation {name!r}")


@dataclass
class Layer:
    weight: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray    # (out_dim,)
    activation: str = "identity"
    slope: float = 0.2

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ConfigError("layer weight must be 2-d and bias 1-d")
        if self.weight.shape[1] != self.bias.shape[0]:
            raise ConfigError(
                f"bias length {self.bias.shape[0]} does not match "
                f"weight output dim {self.weight.shape[1]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.activation == "leaky_relu":
            _check_slope(self.slope)
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise ConfigError("layer parameters must be finite")


@dataclass
class Mlp:
    layers: list

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.weight.shape[1] != nxt.weight.shape[0]:
                raise ConfigError(
                    f"layer dims incompatible: {prev.weight.shape} -> {nxt.weight.shape}"
                )

    @property
    def in_dim(self):
        return self.layers[0].weight.shape[0]

    @property
    def out_dim(self):
        return self.layers[-1].weight.shape[1]

    def param_arrays(self):
        """References to all parameter arrays, weight then bias per layer."""
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            out.append(layer.bias)
        return out

    def copy(self):
        return Mlp([
            Layer(l.weight.copy(), l.bias.copy(), l.activation, l.slope)
            for l in self.layers
        ])


def unflatten(flat, shapes):
    """Views of flat with the given shapes, laid end to end from its start."""
    sizes = [math.prod(shape) for shape in shapes]
    if sum(sizes) != flat.size:
        raise UsageError(f"a flat vector of {flat.size} entries cannot hold {sum(sizes)}")
    views, at = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(flat[at:at + size].reshape(shape))
        at += size
    return views


def pack(mlps):
    """Move every weight and bias of mlps into one new contiguous float64
    vector, in param_arrays order, and leave views of it in the layers.

    Returns the vector. Layers are copied one at a time, so no more than one
    layer's parameters are held twice.
    """
    layers = [layer for mlp in mlps for layer in mlp.layers]
    shapes = [s for l in layers for s in (l.weight.shape, l.bias.shape)]
    flat = np.empty(sum(l.weight.size + l.bias.size for l in layers))
    views = iter(unflatten(flat, shapes))
    for layer in layers:
        for name in ("weight", "bias"):
            view = next(views)
            view[...] = getattr(layer, name)
            setattr(layer, name, view)
    return flat


def glorot_init(rng, fan_in, fan_out):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_mlp(dims, activations, rng, slope=0.2):
    """Build an MLP with Glorot-uniform weights and zero biases.

    dims has one more entry than activations: dims[i] -> dims[i+1] with
    activations[i] applied after each affine map.
    """
    if len(dims) != len(activations) + 1:
        raise ConfigError("need len(dims) == len(activations) + 1")
    layers = []
    for i, act in enumerate(activations):
        w = glorot_init(rng, dims[i], dims[i + 1])
        b = np.zeros(dims[i + 1])
        layers.append(Layer(w, b, act, slope))
    return Mlp(layers)


def mlp_forward(mlp, x, keep_cache=True, out=None):
    """Run the network on a batch. Returns (output, cache).

    cache holds per-layer (input, pre-activation) pairs and is consumed
    by mlp_backward. With keep_cache=False the cache is None, each layer's
    activation overwrites its fresh pre-activation, and the last layer is
    written into out when it is given (a C-contiguous float64 array of the
    output's shape); x itself is never written. The output is not checked
    for non-finite values; the callers check what leaves the networks
    (losses, generated features).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ConfigError("input must be a 2-d batch")
    if x.shape[1] != mlp.in_dim:
        raise ConfigError(
            f"input dim {x.shape[1]} does not match network input dim {mlp.in_dim}"
        )
    if keep_cache and out is not None:
        raise UsageError("out= is for the forward that keeps no cache")
    cache = [] if keep_cache else None
    h = x
    for i, layer in enumerate(mlp.layers):
        z = np.matmul(h, layer.weight, out=out if i == len(mlp.layers) - 1 else None)
        z += layer.bias
        if keep_cache:
            cache.append((h, z))
        h = activate(layer.activation, z, layer.slope, in_place=not keep_cache)
    return h, cache


def mlp_backward(mlp, cache, d_out, grads=None, param_grads=True, input_grad=True):
    """Backpropagate an upstream gradient through the network.

    Returns (grads, d_input) where grads is a list aligned with
    mlp.param_arrays(). The gradients are written into `grads` when it is
    given (views of a flat gradient, say). param_grads=False skips them and
    input_grad=False skips the first layer's input gradient; what is
    skipped comes back as None.
    """
    if len(cache) != len(mlp.layers):
        raise UsageError("cache does not match network depth")
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != (cache[-1][1].shape[0], mlp.out_dim):
        raise UsageError(
            f"upstream gradient shape {d_out.shape} does not match output"
        )
    if not param_grads:
        grads = None
    elif grads is None:
        grads = [np.empty_like(p) for p in mlp.param_arrays()]
    d_h = d_out
    for i in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[i]
        h_in, z = cache[i]
        if h_in.shape[1] != layer.weight.shape[0]:
            raise UsageError("stale cache: layer input dim changed")
        if layer.activation == "identity":
            d_z = d_h
        elif layer.activation == "relu":
            d_z = d_h * (z >= 0.0)   # a bool mask, not a float copy
        else:
            d_z = d_h * activate_grad(layer.activation, z, layer.slope)
        if param_grads:
            np.matmul(h_in.T, d_z, out=grads[2 * i])
            np.add.reduce(d_z, axis=0, out=grads[2 * i + 1])
        d_h = d_z @ layer.weight.T if i or input_grad else None
    return grads, d_h


@dataclass
class AdamState:
    alpha: float = 0.001
    beta1: float = bounded(0.5, ge=0, lt=1)
    beta2: float = bounded(0.9, ge=0, lt=1)
    epsilon: float = 1e-8
    t: int = 0
    m: np.ndarray = None   # moments, shaped like the flat parameter vector
    v: np.ndarray = None

    __post_init__ = check_bounds

    @classmethod
    def for_params(cls, params, **settings):
        """Zero moments for a flat parameter vector; settings are the rates.

        np.zeros maps zero pages that become resident at the first write, so
        the moments cost no memory until the first adam_step.
        """
        return cls(**settings, m=np.zeros(params.shape), v=np.zeros(params.shape))


# entries per Adam work chunk: two 512 KiB buffers, whatever the network size
ADAM_CHUNK = 1 << 16


def adam_step(params, grads, state):
    """One bias-corrected Adam update, in place on a flat parameter vector.

    m_hat = m / (1 - b1^t), v_hat = v / (1 - b2^t) and
    p -= alpha * m_hat / (sqrt(v_hat) + epsilon), operation for operation.
    The vector is updated ADAM_CHUNK entries at a time, with intermediates
    in two work buffers of one chunk, allocated once per call.
    """
    if params.ndim != 1 or grads.shape != params.shape or state.m.shape != params.shape:
        raise UsageError(f"parameter {params.shape}, gradient {grads.shape} and "
                         f"moment {state.m.shape} vectors differ")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    work = np.empty((2, min(params.size, ADAM_CHUNK)))
    for lo in range(0, params.size, ADAM_CHUNK):
        p, g = params[lo:lo + ADAM_CHUNK], grads[lo:lo + ADAM_CHUNK]
        m, v = state.m[lo:lo + ADAM_CHUNK], state.v[lo:lo + ADAM_CHUNK]
        a, b = work[0, :p.size], work[1, :p.size]
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=a)
        v *= b2
        np.multiply(g, 1.0 - b2, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(v, c2, out=b)       # v_hat
        np.sqrt(b, out=b)
        b += state.epsilon
        np.divide(m, c1, out=a)       # m_hat
        a *= state.alpha
        p -= np.divide(a, b, out=a)


def gradient_check(f, params, step=1e-5):
    """Compare analytic gradients with central finite differences.

    f() evaluates the loss using the current contents of the arrays in
    params and returns (loss, grads) with grads aligned with params.
    Returns the max relative error over all parameter entries.
    """
    _, grads = f()
    worst = 0.0
    for p, g in zip(params, grads):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            plus, _ = f()
            p[idx] = orig - step
            minus, _ = f()
            p[idx] = orig
            numeric = (plus - minus) / (2.0 * step)
            analytic = g[idx]
            # the floor keeps round-off noise in near-zero gradients from
            # registering as relative error (loss ulp / step is ~1e-11)
            denom = max(abs(analytic), abs(numeric), 1e-6)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst
