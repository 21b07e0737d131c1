import pytest

import chm.core


@pytest.fixture
def fresh_recent(monkeypatch):
    """An empty memo of recently prepared inputs for one test, so that what an
    earlier test prepared cannot stand in for a build the test counts."""
    monkeypatch.setattr(chm.core, "_RECENT", {})
