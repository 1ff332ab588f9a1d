"""Shared fixtures."""

import pytest

from cwlab import counting


@pytest.fixture(autouse=True)
def empty_walk_memo():
    """Start and end every test with an empty walk memo, so no test reads a
    walk that an earlier test left behind."""
    counting._walks.clear()
    yield
    counting._walks.clear()
