import pytest

from repro.kernels.cache import clear_core_store


@pytest.fixture(autouse=True)
def _empty_core_store():
    """Every test starts with an empty kernel core store.

    The store is process-global: a solve's compile and hit counts depend
    on what the process compiled before it, so without this they would
    depend on which tests ran first.
    """
    clear_core_store()
