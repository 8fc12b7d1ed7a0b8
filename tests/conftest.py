import pytest

from quditcost import cli, costmodel


@pytest.fixture
def fresh_caches(monkeypatch):
    """Every per-process cache of the report path empty, as in a new process, and restored afterwards.

    main's parser, the row templates, the --primes tuples, the one-norm
    half sums and the dimension terms: a test that counts calls then sees
    each built or priced as a first run does.
    """
    monkeypatch.setattr(cli, "_PARSER", None)
    for module, name in [(cli, "_TEMPLATES"), (cli, "_PRIMES"), (costmodel, "_HALF_WEIGHT_SUMS"),
                         (costmodel, "_DIMENSION_TERMS")]:
        monkeypatch.setattr(module, name, {})
