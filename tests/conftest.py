import pytest

from quditcost import cli, costmodel


@pytest.fixture
def fresh_caches(monkeypatch):
    """Every per-process cache of the report path empty, as in a new process, and restored afterwards.

    main's parser and the one-norm half sums of the d below
    costmodel.ONE_NORM_SERIES_D: a test that counts calls then sees each
    built as a first run does.
    """
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(costmodel, "_HALF_WEIGHT_SUMS", {})
