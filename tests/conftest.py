import pytest

import chm.core


@pytest.fixture
def fresh_recent():
    """An empty memo of recently prepared inputs for one test, so that what an
    earlier test prepared cannot stand in for a build the test counts."""
    chm.core._recent.cache_clear()
    yield
    chm.core._recent.cache_clear()
