import pytest
from hypothesis import HealthCheck, settings

from touchard import build_triangle, mk_context

settings.register_profile(
    "touchard",
    deadline=None,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("touchard")


@pytest.fixture(scope="session")
def ctx60():
    return mk_context(60)


@pytest.fixture(scope="session")
def ctx120():
    return mk_context(120)


@pytest.fixture(scope="session")
def ctx40():
    return mk_context(40)


@pytest.fixture(scope="session")
def triangle120():
    # rows up to n=120: every exact value required by the error tables
    return build_triangle(range(121))
