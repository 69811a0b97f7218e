"""Dense MLP substrate: layers, forward/backward, Adam, gradient checking.

Everything is float64 numpy. Batches are row-major: one sample per row.
`pack` moves a network's parameters into one contiguous vector that its
layers view. Every affine layer runs through one pass pair, `dense_forward`
and `dense_backward`; `mlp_forward` and `mlp_backward` loop over it. A
backward pass forms every gradient in the layers' inputs from the weights
as they are, and gives each parameter array's gradient as a form: a
function that writes any run of the array's rows. `stream_grads` runs a
network's forms one block of its flat layout at a time, by the `grad_plan`
of the arrays' shapes, at most GRAD_BLOCK_VALUES values and no more than the
network's largest array past one Adam work chunk: it writes the blocks into
one flat gradient, or hands each to `adam_step` for its range of the
parameters as soon as it is formed, so a training step never holds a
gradient of the whole network. A forward that keeps no cache, as generation
runs it, applies each activation in place and can write its last layer into
the caller's array.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bounds import bounded, check_bounds
from .errors import ConfigError, UsageError

ACTIVATIONS = ("identity", "relu", "leaky_relu", "tanh")

# the leaky relu is max(z, LEAKY_SLOPE * z): z for z >= 0 and LEAKY_SLOPE * z
# below, as in the generator of Xian et al. (2018)
LEAKY_SLOPE = 0.2

# Adam's denominator floor; no caller sets it
ADAM_EPSILON = 1e-8


def activate(name, z, in_place=False):
    """The activation of pre-activation z; in_place writes it into z."""
    out = z if in_place else None
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0, out=out)
    if name == "leaky_relu":
        return np.maximum(z, LEAKY_SLOPE * z, out=out)
    if name == "tanh":
        return np.tanh(z, out=out)
    raise ConfigError(f"unknown activation {name!r}")


def activate_grad(name, z):
    """d activation / d z evaluated at pre-activation z; for relu, a bool mask."""
    if name == "identity":
        return np.ones_like(z)
    if name == "relu":
        return z >= 0.0
    if name == "leaky_relu":
        return np.where(z >= 0.0, 1.0, LEAKY_SLOPE)
    if name == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    raise ConfigError(f"unknown activation {name!r}")


@dataclass
class Layer:
    weight: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray    # (out_dim,)
    activation: str = "identity"

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
            Layer(l.weight.copy(), l.bias.copy(), l.activation)
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


def init_mlp(dims, activations, rng):
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
        layers.append(Layer(w, b, act))
    return Mlp(layers)


def dense_forward(layer, x, in_place=False, out=None):
    """One layer on a batch: (activation, pre-activation z = x @ W + b).

    z is formed into out when it is given (a C-contiguous float64 array of
    its shape). in_place applies the activation in z itself, so both results
    are one array; so are they for an identity layer.
    """
    z = np.matmul(x, layer.weight, out=out)
    z += layer.bias
    return activate(layer.activation, z, in_place), z


def dense_backward(layer, a, z, d, input_grad=True, in_place=False):
    """Backpropagate d, the gradient in the output of a layer whose input was
    a and whose pre-activation was z.

    Returns (forms, d_a): the gradient forms (see stream_grads) of the
    layer's weight and bias, the rows of a.T @ d_z and d_z summed over rows,
    and d_a = d_z @ W.T, formed only with input_grad (None without). d_z is
    d times the activation's derivative at z, written into d with in_place,
    when the caller owns d. d_a is formed here from the weight as it is, so
    the forms read no parameter.
    """
    if a.shape[1] != layer.weight.shape[0]:
        raise UsageError("stale cache: layer input dim changed")
    if layer.activation != "identity":
        d = np.multiply(d, activate_grad(layer.activation, z), out=d if in_place else None)

    def weight(lo, hi, dest):
        np.matmul(a.T[lo:hi], d, out=dest)

    def bias(lo, hi, dest):
        np.add.reduce(d, axis=0, out=dest[0])

    if not input_grad:
        d_a = None
    elif layer.weight.shape[1] == 1:
        # a product over one column is one multiply per entry: the broadcast
        # forms it without a BLAS call, and keeps the sign of a zero product
        d_a = d * layer.weight.T
    else:
        d_a = d @ layer.weight.T
    return [weight, bias], d_a


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
    h, last = x, len(mlp.layers) - 1
    for i, layer in enumerate(mlp.layers):
        a, z = dense_forward(layer, h, not keep_cache, out if i == last else None)
        if keep_cache:
            cache.append((h, z))
        h = a
    return h, cache


def mlp_backward(mlp, cache, d_out, input_grad=True):
    """Backpropagate an upstream gradient through the network.

    Returns (forms, d_input): the gradient forms of mlp.param_arrays(), in
    that order (see stream_grads), and the gradient in the network's input
    (None with input_grad=False). d_out is not written.
    """
    if len(cache) != len(mlp.layers):
        raise UsageError("cache does not match network depth")
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != (cache[-1][1].shape[0], mlp.out_dim):
        raise UsageError(
            f"upstream gradient shape {d_out.shape} does not match output"
        )
    forms, d = [], d_out
    last = len(mlp.layers) - 1
    for i in range(last, -1, -1):
        weight_bias, d = dense_backward(mlp.layers[i], *cache[i], d, i > 0 or input_grad,
                                        in_place=i < last)
        forms[:0] = weight_bias
    return forms, d


# values per gradient block: stream_grads forms a network's gradient, and
# hands it to Adam, at most this many values (8 MB) at a time
GRAD_BLOCK_VALUES = 1 << 20

# entries per Adam work chunk: two 512 KiB buffers, whatever the network size
ADAM_CHUNK = 1 << 16


def grad_plan(shapes, reverse=False):
    """The plan by which stream_grads forms a flat gradient of arrays of the
    given shapes, a 1-d array being one row: (values in all, values in the
    largest block, blocks in the order they are formed, last first with
    reverse). A block is (start, end, pieces), each piece (array, first row,
    end row, start and end in the block, row width, whether it is the
    array's last piece to be formed).

    A block's budget is GRAD_BLOCK_VALUES, or the largest array if that is
    smaller, so a network that would fit in one block is still not held
    whole; but never under ADAM_CHUNK, the size of the two work buffers
    adam_step allocates anyway. An array of more than budget values is cut
    into runs of budget // width rows, at least one; consecutive runs that
    fit in budget share a block. A run of a cut array holds more than
    budget - width values, so two runs of one array never share a block:
    an array's last piece formed is its first rows with reverse and its
    last rows without.
    """
    budget = min(GRAD_BLOCK_VALUES, max(ADAM_CHUNK, max(map(math.prod, shapes))))
    blocks, at = [], 0
    for i, shape in enumerate(shapes):
        n_rows, width = shape if len(shape) == 2 else (1, shape[0])
        step = n_rows if n_rows * width <= budget else max(1, budget // width)
        for lo in range(0, n_rows, step):
            hi = min(lo + step, n_rows)
            end = at + (hi - lo) * width
            if not blocks or end - blocks[-1][0] > budget:
                blocks.append((at, []))
            start, pieces = blocks[-1]
            pieces.append((i, lo, hi, at - start, end - start, width,
                           lo == 0 if reverse else hi == n_rows))
            at = end
    planned = [(start, start + pieces[-1][4], tuple(pieces)) for start, pieces in blocks]
    if reverse:
        planned.reverse()
    return at, max(end - start for start, end, _ in planned), tuple(planned)


def stream_grads(forms, plan, update=None):
    """A network's gradient, formed one block of its flat layout at a time.

    plan, grad_plan of the arrays' shapes, sets the blocks and the order
    they run in. forms[i](lo, hi, dest) writes rows lo:hi of the gradient of
    array i into dest, a (hi - lo, width) array; a 1-d array is one row.
    forms is consumed: each form is dropped after its array's last piece,
    which releases what only it holds.

    Without update, each block is its range of one new vector, which is
    returned. With update, (flat parameters, AdamState), every
    block is formed in one work block and adam_step applies it to its range
    as soon as it is formed; the step count advances once, before the first
    block, and None is returned. Adam's operations are elementwise, so the
    parameters and moments are those of one whole-vector adam_step.
    """
    size, largest, blocks = plan
    if update is None:
        flat = np.empty(size)
    else:
        params, state = update
        if params.shape != (size,):
            raise UsageError(f"a parameter vector of shape {params.shape} does not hold "
                             f"the gradient's {size} values")
        flat, work = None, np.empty(largest)
        state.t += 1
    for start, end, pieces in blocks:
        dest = work[:end - start] if flat is None else flat[start:end]
        for i, lo, hi, a, b, width, last in pieces:
            forms[i](lo, hi, dest[a:b].reshape(hi - lo, width))
            if last:
                forms[i] = None
        if flat is None:
            adam_step(params, dest, state, at=start)
    return flat


@dataclass
class AdamState:
    alpha: float = 0.001
    beta1: float = bounded(0.5, ge=0, lt=1)
    beta2: float = bounded(0.9, ge=0, lt=1)
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


def adam_step(params, grads, state, at=None):
    """One bias-corrected Adam update, in place on a flat parameter vector.

    m_hat = m / (1 - b1^t), v_hat = v / (1 - b2^t) and
    p -= alpha * m_hat / (sqrt(v_hat) + ADAM_EPSILON), operation for operation.
    Without at, grads is the whole gradient and the step count advances
    first. With at, grads is the block of a step's gradient that starts at
    params[at]: only that range and its moments change, at the count that
    the caller advanced once for the step. The range is updated ADAM_CHUNK
    entries at a time, with intermediates in two work buffers of one chunk,
    allocated once per call.
    """
    n = grads.size
    if (params.ndim != 1 or grads.ndim != 1 or state.m.shape != params.shape
            or (n != params.size if at is None else not 0 <= at <= params.size - n)):
        raise UsageError(f"parameter {params.shape}, gradient {grads.shape} at {at} and "
                         f"moment {state.m.shape} vectors differ")
    m_all, v_all = state.m, state.v
    if at is None:
        state.t += 1
    else:
        params, m_all, v_all = params[at:at + n], m_all[at:at + n], v_all[at:at + n]
    b1, b2 = state.beta1, state.beta2
    c1, c2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    work = np.empty((2, min(n, ADAM_CHUNK)))
    for lo in range(0, n, ADAM_CHUNK):
        p, g = params[lo:lo + ADAM_CHUNK], grads[lo:lo + ADAM_CHUNK]
        m, v = m_all[lo:lo + ADAM_CHUNK], v_all[lo:lo + ADAM_CHUNK]
        a, b = work[0, :p.size], work[1, :p.size]
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=a)
        v *= b2
        np.multiply(g, 1.0 - b2, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(v, c2, out=b)       # v_hat
        np.sqrt(b, out=b)
        b += ADAM_EPSILON
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
