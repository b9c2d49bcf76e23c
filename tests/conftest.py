import pytest
from hypothesis import HealthCheck, settings

from touchard import mk_context

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
