import pytest
from hypothesis import settings, HealthCheck

# derandomized: every run checks the same examples, in the same time
settings.register_profile(
    "default", max_examples=50, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("default")


@pytest.fixture(scope="session")
def corpus_entries():
    from gintools.corpus import builtin_entries
    return {entry.name: entry for entry in builtin_entries()}


@pytest.fixture(scope="session")
def corpus_gins(corpus_entries):
    """gin at seed 0 with 5 votes, shared across the suite."""
    from gintools.gin import gin
    return {name: gin(entry.ideal(), seed=0, votes=5)
            for name, entry in corpus_entries.items()}
