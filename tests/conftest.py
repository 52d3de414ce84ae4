import numpy as np
import pytest


def pytest_configure(config):
    # An imaginary part dropped without notice is a failure.  ComplexWarning
    # subclasses RuntimeWarning today; naming it keeps it an error if the
    # pyproject filter ever narrows.  The class lives in numpy.exceptions from
    # numpy 1.25 and at the top level before that.
    warning = getattr(np, "exceptions", np).ComplexWarning
    config.addinivalue_line("filterwarnings",
                            f"error::{warning.__module__}.{warning.__qualname__}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_complex(rng, n):
    """A generic complex vector with O(1) entries."""
    return rng.normal(size=n) + 1j * rng.normal(size=n)
