import pytest

from homotrace import transferred_morphism
from oracles import instance


@pytest.fixture(scope="session")
def t1():
    return instance("T1")


@pytest.fixture(scope="session")
def t1_morphism(t1):
    return transferred_morphism(t1.bundle, t1.splitting)


@pytest.fixture(scope="session")
def torus1():
    return instance("torus1")


@pytest.fixture(scope="session")
def torus_morphism(torus1):
    return transferred_morphism(torus1.bundle, torus1.splitting)
