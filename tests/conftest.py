import pytest

from uqcm import CloneSpec, synthesize_cloner

# Every spec whose full circuit (data + flag) fits in 12 qubits.
SWEEP = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (3, 5), (2, 5))


@pytest.fixture(scope="session")
def sweep_results():
    """Synthesized cloners for the standard spec sweep, shared across tests."""
    return {nm: synthesize_cloner(CloneSpec(*nm)) for nm in SWEEP}
