import pytest

from pulse2d.dispatch import PulseEvaluator


@pytest.fixture(scope="session")
def ev64():
    """Shared double-precision evaluator at the accuracy floor."""
    return PulseEvaluator(2e-16)


@pytest.fixture(scope="session")
def params64(ev64):
    return ev64.params
