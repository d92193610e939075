"""The series, obstruction, lift and gauge-equivalence tests of
test_maurer_cartan and test_gauge_equiv, rerun with every trusted
construction replaced by the checked constructor (see test_trusted)."""

import pytest

from test_trusted import checked_construction


@pytest.fixture(scope="module", autouse=True)
def checked():
    with checked_construction():
        yield


from test_gauge_equiv import *  # noqa: E402,F401,F403
from test_maurer_cartan import *  # noqa: E402,F401,F403
