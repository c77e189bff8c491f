import pytest

from knotcode.fields import FqField
from knotcode.generators import builtin, pretzel_diagram, torus_diagram


@pytest.fixture(scope="session")
def F2():
    return FqField(2)


@pytest.fixture(scope="session")
def F3():
    return FqField(3)


@pytest.fixture(scope="session")
def F4():
    return FqField(2, [1, 1, 1])


@pytest.fixture(scope="session")
def F5():
    return FqField(5)


@pytest.fixture(scope="session")
def F7():
    return FqField(7)


@pytest.fixture(scope="session")
def trefoil():
    return builtin("trefoil")


@pytest.fixture(scope="session")
def figure_eight():
    return builtin("figure_eight")


@pytest.fixture(scope="session")
def unknot():
    return builtin("unknot")


def small_diagrams():
    """A spread of valid diagrams used by the property suites."""
    return [
        builtin("trefoil"),
        builtin("figure_eight"),
        torus_diagram(2, 5),
        torus_diagram(2, 7),
        torus_diagram(3, 4),
        pretzel_diagram([3, 3, 3]),
        pretzel_diagram([-1, -1, -1]),
        pretzel_diagram([3, 2, 3]),
    ]

