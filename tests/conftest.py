"""Fixtures shared by every test module."""

import pytest


@pytest.fixture(autouse=True)
def private_cache_home(tmp_path_factory, monkeypatch):
    """Point XDG_CACHE_HOME at an empty directory of the test's own, so that
    no read_bundle in a test, or in a CLI it starts, reads or writes the
    user's cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache-home")))
