"""Shared fixtures."""

import pytest

from rhtsketch import hadamard


def _shut_down_pool():
    if hadamard._pool.cache_info().currsize:
        hadamard._pool().shutdown()
    hadamard._pool.cache_clear()


@pytest.fixture
def pin_workers(monkeypatch):
    """A function pin(count) that makes split transforms use ``count`` workers.

    Pinning shuts the worker pool down, so the next split starts one sized
    for the count; that pool is shut down after the test, and the module's
    own count comes back.
    """

    def pin(count):
        _shut_down_pool()
        monkeypatch.setattr(hadamard, "_WORKERS", count)

    yield pin
    _shut_down_pool()
