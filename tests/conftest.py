"""Every test runs as if this process may use many CPUs, so each child the
code asks for is forked whatever the host's CPU count: the fork rule's CPU
condition (``sim._may_fork``) is tested on its own, with the count pinned."""
import pytest

from chargesim import sim

CPUS = 64


@pytest.fixture(autouse=True)
def _many_cpus(monkeypatch):
    monkeypatch.setattr(sim, "_cpus", lambda: CPUS)
