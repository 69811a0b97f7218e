"""Tests for the benchmark tracer.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import importlib
import itertools
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from zsgen import data, gan, selftrain  # noqa: E402
from tracer import TARGETS, Tracer, layer_metrics  # noqa: E402


def _zsgen_modules():
    return [m for name, m in sys.modules.items()
            if name == "zsgen" or name.startswith("zsgen.")]


def _originals():
    return {id(getattr(importlib.import_module("zsgen." + q.split(".")[0]), q.split(".")[1]))
            for q in TARGETS}


def test_install_wraps_every_binding_and_restores():
    originals = _originals()
    tracer = Tracer()
    with tracer.install():
        for module in _zsgen_modules():
            for attr, value in vars(module).items():
                assert id(value) not in originals, f"{module.__name__}.{attr} escaped"
        # names imported into other modules are the wrapped objects too
        assert selftrain.generate is gan.generate
        assert sys.modules["zsgen.text"].stem is sys.modules["zsgen.porter"].stem
        assert sys.modules["zsgen.evaluate"].knn_scores is sys.modules["zsgen.knn"].knn_scores
    assert _originals() == originals
    assert selftrain.generate.__module__ == "zsgen.gan"
    assert not hasattr(selftrain.generate, "__wrapped__")


def test_self_time_subtracts_child_spans():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer._wrap("inner", lambda: None)
    outer = tracer._wrap("outer", lambda: inner() or inner())
    with tracer.phase("p"):
        outer()
    stats, unattributed = tracer.summary()
    # clock reads: p0 outer1 inner2 inner3 inner4 inner5 outer6 p7
    assert stats["outer"]["calls"] == 1 and stats["outer"]["self_s"] == 3.0
    assert stats["inner"]["calls"] == 2 and stats["inner"]["self_s"] == 2.0
    assert unattributed == 2.0
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]


def test_tiny_run_ssl_call_counts_are_exact():
    ds = data.make_synthetic(data.SyntheticSpec(
        num_seen=4, num_unseen=2, samples_per_class=20, semantic_dim=8, visual_dim=6))
    n_d, n_step, eval_every, n_ssl = 2, 6, 2, 2
    gen_cfg = gan.GeneratorConfig(semantic_dim=8, visual_dim=6, reduce_dim=4,
                                  hidden_dim=8, noise_sigma=0.1)
    disc_cfg = gan.DiscriminatorConfig(visual_dim=6, hidden_dim=8)
    train_cfg = gan.GanTrainConfig(n_step=n_step, n_d=n_d, batch_size=8,
                                   eval_every=eval_every, patience=100, knn_k=3,
                                   probe_per_class=5)
    ssl_cfg = selftrain.SslConfig(psi=0.6, n_ssl=n_ssl, per_class_synthetic=5, knn_k=3)
    tracer = Tracer()
    with tracer.install():
        selftrain.run_ssl(ds, gen_cfg, disc_cfg, train_cfg, ssl_cfg, seed=0)
    m = layer_metrics(tracer)
    assert m["gan.discriminator_loss_grads.calls"][0] == n_d * n_step * n_ssl
    assert m["gan.generator_loss_grads.calls"][0] == n_step * n_ssl
    assert m["gan.triplet_loss_grad.calls"][0] == n_step * n_ssl
    assert m["gan._probe_gacc.calls"][0] == (n_step // eval_every) * n_ssl
    assert m["gan.train_gan.calls"][0] == n_ssl
    # every critic step generates one fake batch; every probe one batch per class
    n_cls = len(ds.class_ids)
    assert m["gan.generate.calls"][0] >= n_ssl * (n_d * n_step + n_step // eval_every * n_cls)
    assert m["nn.gflop"][0] > 0 and np.isfinite(m["nn.gflop_per_s"][0])
