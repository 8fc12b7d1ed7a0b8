import pytest

from quditcost import cli


@pytest.fixture
def fresh_caches(monkeypatch):
    """The one per-process cache of the report path, main's parser, empty as in a new process, and restored afterwards.

    A test that counts calls then sees the parser built as a first run does.
    """
    monkeypatch.setattr(cli, "_PARSER", None)
