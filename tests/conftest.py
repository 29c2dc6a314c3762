import pytest

from corpus_build import fibonacci_ring, ising_ring, rep_s3_ring
from gxcat.fusion import pointed_ring, tensor_power
from gxcat.groups import cyclic, product


@pytest.fixture(scope="session")
def ising():
    return ising_ring()


@pytest.fixture(scope="session")
def fibonacci():
    return fibonacci_ring()


@pytest.fixture(scope="session")
def rep_s3():
    return rep_s3_ring()


@pytest.fixture(scope="session")
def vect():
    return pointed_ring(cyclic(1), name="vect")


@pytest.fixture(scope="session")
def toric_ring():
    return pointed_ring(product(cyclic(2), cyclic(2)), name="toric_code")


@pytest.fixture(scope="session")
def fib2_swap(fibonacci):
    return tensor_power(fibonacci, 2, cyclic(2), [(0, 1), (1, 0)])


@pytest.fixture(scope="session")
def ising2_swap(ising):
    return tensor_power(ising, 2, cyclic(2), [(0, 1), (1, 0)])
