import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def blas_threads():
    """Getter of numpy's OpenBLAS thread count, set to 2 for the test so that
    a pin to one thread shows; the caller's count is put back afterwards."""
    from graphonlab import gcn

    lib = gcn._numpy_openblas()
    if lib is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    previous = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        yield lib.scipy_openblas_get_num_threads64_
    finally:
        lib.scipy_openblas_set_num_threads64_(previous)
