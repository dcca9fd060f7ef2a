import pytest
from hypothesis import HealthCheck, settings

from rwc import SelectorParams, model_from_chain, eta_source, two_state_chain

settings.register_profile(
    "rwc", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("rwc")


@pytest.fixture(scope="session")
def params():
    return SelectorParams.default()


@pytest.fixture(scope="session")
def eta_model():
    """Order-0 model of the E/T/A source (E 49%, T 49%, A 2%)."""
    return model_from_chain(eta_source())


@pytest.fixture(scope="session")
def chain_model():
    """Order-1 model of the two-state chain (E/T blocks with rare AS/AH)."""
    return model_from_chain(two_state_chain())
