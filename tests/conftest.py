"""Fixtures shared across test modules."""

import pytest

from avfuse import featio


@pytest.fixture
def tear_writes(monkeypatch):
    """A call that makes every file ``featio`` opens from then on take the first half of
    each write and then fail like a full disk: the fault an atomic write must survive."""
    real_open = open

    class TornWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    def tear():
        monkeypatch.setattr(featio, "open", lambda *a, **k: TornWriter(real_open(*a, **k)), raising=False)

    return tear
