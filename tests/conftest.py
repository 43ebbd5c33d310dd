"""Shared fixtures: small deterministic stacks for fast tests."""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.rand import Streams


def pytest_collection_modifyitems(config, items):
    # The 25-seed fuzz sweep is the CI check-smoke budget, not part of
    # the default suite; run it explicitly with ``-m fuzz_smoke``.
    if config.getoption("-m"):
        return
    skip = pytest.mark.skip(reason="fuzz sweep; run with -m fuzz_smoke")
    for item in items:
        if "fuzz_smoke" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def streams():
    return Streams(1234)


@pytest.fixture
def rng(streams):
    return streams.stream("test")


def run_to_completion(sim, *gens):
    """Spawn every generator and run the simulator dry."""
    procs = [sim.spawn(g) for g in gens]
    sim.run()
    return procs
