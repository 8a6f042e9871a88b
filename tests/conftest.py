from functools import cache

import pytest

from huliu import catalog, catalog_pairs, direct_sum_group, enumerate_lcrngs


@pytest.fixture(scope="session")
def cat():
    return catalog()


@pytest.fixture(scope="session")
def r4(cat):
    return cat["r4"]


@pytest.fixture(scope="session")
def r8(cat):
    return cat["r8"]


@pytest.fixture(scope="session")
def u8(cat):
    return cat["u8"]


@pytest.fixture(scope="session")
def r18(cat):
    return cat["r18"]


@pytest.fixture(scope="session")
def pairs():
    return catalog_pairs()


@pytest.fixture(scope="session")
def census_of():
    """The census up to isomorphism of a group given by its cyclic orders,
    computed once per session (Z2^4 takes seconds)."""
    return cache(lambda orders: enumerate_lcrngs(direct_sum_group(list(orders))))
