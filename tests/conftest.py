"""Shared fixtures."""

import pytest

from cwlab import counting
from cwlab.fields import FieldTables


@pytest.fixture(autouse=True)
def empty_memos():
    """Start and end every test with an empty walk memo, an empty
    direction-table memo and an empty grid memo, so no test reads a walk or
    a table that an earlier test left behind."""
    counting._walks.clear()
    FieldTables.direction_memo.clear()
    FieldTables.grid_memo.clear()
    yield
    counting._walks.clear()
    FieldTables.direction_memo.clear()
    FieldTables.grid_memo.clear()
