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
    """In order, the (p, part bound, e, K, N) of every ladder built and the
    (p, K) of every unit pass."""
    built = []
    build, unit_pass = compsum._Ladder.__init__, compsum._unit_pass

    def counting(self, *args):
        built.append(args)
        build(self, *args)

    def counted_pass(p, K, wanted):
        built.append((p, K))
        unit_pass(p, K, wanted)

    monkeypatch.setattr(compsum._Ladder, "__init__", counting)
    monkeypatch.setattr(compsum, "_unit_pass", counted_pass)
    return built
