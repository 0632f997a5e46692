import concurrent.futures

import pytest

from hloblab import engine


class CountingPool(concurrent.futures.ThreadPoolExecutor):
    """A head pool that counts the sample blocks handed to it."""

    def __init__(self):
        super().__init__(engine.MAX_HEAD_WORKERS - 1)
        self.blocks = 0

    def submit(self, fn, /, *args, **kwargs):
        self.blocks += 1
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def head_pool(monkeypatch):
    """Install a fresh counting pool as the engine's head pool."""
    pool = CountingPool()
    monkeypatch.setattr(engine, "_pool", pool)
    yield pool
    pool.shutdown(wait=True)
