"""Package names the benchmark's span tracer (perfbench/tracer.py) looks up.

The tracer wraps what it finds in each module's or class's own namespace
and reports zeros, not an error, for a name that is gone, so a rename
here would silently blank its per-layer metrics.
"""

import inspect

from stbc_forge import clifford, codes, codinggain, gmatrix, simulator, verifier

TRACED = (
    (codes.LinearDispersionCode, "weight_arrays"),
    (codes.LinearDispersionCode, "scaled"),
    (gmatrix.GaussianMatrix, "__matmul__"),
    (simulator, "transmit_scale"),
    (simulator, "ml_decode_bruteforce"),
    (verifier, "check_ssd"),
    (verifier, "classify"),
    (codinggain, "min_det_bruteforce"),
    (codinggain, "min_det_closed_form"),
    (clifford, "generate_family"),
    (clifford, "verify_family"),
)


def _home(owner) -> str:
    return owner.__name__ if inspect.ismodule(owner) else owner.__module__


def test_traced_names_resolve():
    missing = [f"{_home(owner)}.{name}" for owner, name in TRACED
               if not inspect.isfunction(fn := vars(owner).get(name))
               or fn.__module__ != _home(owner)]
    assert not missing
