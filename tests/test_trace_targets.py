"""The per-layer tracer of verdictbench/ wraps package names in place; each
one it names must be defined directly on its owner, or a traced benchmark run
breaks on a rename."""

import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "verdictbench")


@pytest.fixture
def tracing():
    sys.path.insert(0, BENCH_DIR)
    try:
        import tracing
        yield tracing
    finally:
        sys.path.remove(BENCH_DIR)
        sys.modules.pop("tracing", None)


def test_traced_names_are_defined_on_their_owners(tracing):
    targets = tracing._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if attr not in owner.__dict__]
    assert not missing
