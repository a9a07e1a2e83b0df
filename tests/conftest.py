"""Shared test setup.

The derivation-basis cache is redirected into a throwaway directory so test
runs never read or write state left by earlier runs, and that directory is
removed when the session ends; the generator tensors are built once up
front so individual timing-sensitive checks measure only their own work.
"""

import os
import shutil
import tempfile

_CACHE_DIR = tempfile.mkdtemp(prefix="f4cache-")
os.environ["F4DIAGRAMS_CACHE_DIR"] = _CACHE_DIR

import pytest


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_CACHE_DIR, ignore_errors=True)


@pytest.fixture(scope="session")
def warm_tensors():
    from f4diagrams.functor import generator_tensors

    return generator_tensors()
