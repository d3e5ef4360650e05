import gc

import pytest


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Start the test with the collector on or off; put it back afterwards."""
    was_enabled = gc.isenabled()
    gc.enable() if request.param else gc.disable()
    yield request.param
    gc.enable() if was_enabled else gc.disable()
