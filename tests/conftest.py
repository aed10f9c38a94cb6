import pytest
from hypothesis import HealthCheck, settings

from supercong import compsum

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def builds(monkeypatch):
    """The (p, part bound, e, K, N) of every ladder built."""
    built = []
    build = compsum._Ladder.__init__

    def counting(self, *args):
        built.append(args)
        build(self, *args)

    monkeypatch.setattr(compsum._Ladder, "__init__", counting)
    return built
