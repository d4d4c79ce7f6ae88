"""Fixtures shared by the test modules."""
import pytest

from nvdetect import protocol

#: The click-block bound that the block-splitting cases are drawn with. The package's own
#: bound, ``protocol._BLOCK_STREAMS`` = 32,768 clicks, holds a whole default invocation; a case
#: crossing it would need eight times the runs or cycles, and eight times the oracle's
#: per-click loop.
SPLIT_BLOCK_STREAMS = 4096


@pytest.fixture
def split_blocks(monkeypatch):
    """Draw click blocks of at most ``SPLIT_BLOCK_STREAMS`` clicks; gives that bound."""
    assert SPLIT_BLOCK_STREAMS < protocol._BLOCK_STREAMS
    monkeypatch.setattr(protocol, "_BLOCK_STREAMS", SPLIT_BLOCK_STREAMS)
    return SPLIT_BLOCK_STREAMS
