"""Shared fixtures."""

import pytest

from cwlab import counting, geometry
from cwlab.fields import FieldTables


@pytest.fixture(autouse=True)
def empty_memos():
    """Start and end every test with an empty walk memo, an empty
    direction-table memo, an empty grid memo, an empty plan memo, an empty
    shape table and empty probe-line and tail-map memos, so no test reads a
    walk, a table, a plan or a map that an earlier test left behind."""
    counting._walks.clear()
    FieldTables.direction_memo.clear()
    FieldTables.grid_memo.clear()
    counting._plan.cache_clear()
    counting._shape.cache_clear()
    geometry._probe_lines.cache_clear()
    geometry._tail_map.cache_clear()
    yield
    counting._walks.clear()
    FieldTables.direction_memo.clear()
    FieldTables.grid_memo.clear()
    counting._plan.cache_clear()
    counting._shape.cache_clear()
    geometry._probe_lines.cache_clear()
    geometry._tail_map.cache_clear()
