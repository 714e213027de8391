"""Shared fixtures.

The expensive Monte Carlo measures are session-scoped so the acceptance
suite and the unit tests share one sampling run each.
"""

import pytest

from cantorlab import (
    Circle,
    Repeller,
    Segment,
    WalkConfig,
    potential,
    preset,
    sample_harmonic_measure,
)
from cantorlab.lab import _DOUBLING_STREAM


@pytest.fixture(scope="session")
def corner():
    return preset("corner4")


@pytest.fixture(scope="session")
def thirds():
    return preset("middle-thirds")


@pytest.fixture(scope="session")
def circle_em():
    return sample_harmonic_measure(
        Circle(), WalkConfig(samples=100_000, seed=1, threads=4)
    )


@pytest.fixture(scope="session")
def segment_em():
    return sample_harmonic_measure(
        Segment(), WalkConfig(samples=100_000, seed=2, threads=4)
    )


@pytest.fixture(scope="session")
def corner_em_1m(corner):
    return sample_harmonic_measure(
        corner, WalkConfig(samples=1_000_000, seed=1, threads=4)
    )


@pytest.fixture(scope="session")
def corner_em_100k(corner):
    return sample_harmonic_measure(
        corner, WalkConfig(samples=100_000, seed=3, threads=4)
    )


@pytest.fixture(scope="session")
def corner_em_200k(corner):
    # the doubled run's own substreams, as in the cauchy experiment, so it
    # shares no walk with corner_em_100k
    return sample_harmonic_measure(
        corner, WalkConfig(samples=200_000, seed=3, threads=4), stream=_DOUBLING_STREAM
    )


@pytest.fixture
def share_counts(monkeypatch):
    """The number of shares each sampling run of the test splits its chunks into."""
    counts = []
    split = potential._shares

    def shares(jobs, threads):
        out = split(jobs, threads)
        counts.append(len(out))
        return out

    monkeypatch.setattr(potential, "_shares", shares)
    return counts


@pytest.fixture
def atom_builds(monkeypatch):
    """The depth of each generation Repeller.atoms builds during the test, in order."""
    depths = []
    build = Repeller.atoms

    def atoms(self, depth):
        depths.append(depth)
        return build(self, depth)

    monkeypatch.setattr(Repeller, "atoms", atoms)
    return depths
