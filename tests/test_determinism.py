"""The BLAS-thread determinism contract at desk scale: the same seed, BLAS
build and thread count give the same bytes, and at desk scale the BLAS
thread count does not change them."""

import json
import os
import pathlib
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# a short desk run_ssl at the acceptance widths; prints the sha256 of the
# trained generator and critic parameters and the BLAS thread count in use
SCRIPT = """
import ctypes, glob, hashlib, json, pathlib, sys
from dataclasses import replace
import numpy as np
from zsgen import data, selftrain
from test_acceptance import end_to_end_configs

gen_cfg, disc_cfg, train_cfg, ssl_cfg = end_to_end_configs()
train_cfg = replace(train_cfg, n_step=100, eval_every=50)
result = selftrain.run_ssl(data.make_synthetic(data.SyntheticSpec(seed=5)),
                           gen_cfg, disc_cfg, train_cfg, ssl_cfg, seed=5)
digest = hashlib.sha256()
for p in result.generator.params() + result.discriminator.params():
    digest.update(p.tobytes())
threads = None
libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
for path in glob.glob(str(libs / "*openblas*")):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(lib, sym):
            get = getattr(lib, sym)
            get.argtypes, get.restype = [], ctypes.c_int
            threads = get()
            break
print(json.dumps({"sha256": digest.hexdigest(), "threads": threads}))
"""


def desk_run(threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_desk_training_bytes_do_not_depend_on_the_blas_thread_count():
    one, two = desk_run(1), desk_run(2)
    assert one["sha256"] == two["sha256"]
    # the runs did use the thread counts asked for, where the count can be read
    if one["threads"] is not None and len(os.sched_getaffinity(0)) >= 2:
        assert (one["threads"], two["threads"]) == (1, 2)
