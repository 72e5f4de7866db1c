"""Engine teardown: exception safety, idempotency, context-manager behaviour.

Regression tests for the close/exit path: a failure inside a ``with``
block (e.g. ``reset_index()`` raising mid-run) must still shut the
worker pool down, and a failure *during* teardown must neither mask the
in-flight exception nor leave a half-closed pool attached to the
engine.
"""

import pytest

from repro.core.engine import EngineConfig, MnemonicEngine
from repro.core.parallel import ParallelConfig
from repro.query.query_graph import QueryGraph
from repro.streams.config import StreamConfig
from repro.streams.events import StreamEvent

pytestmark = pytest.mark.usefixtures("small_slices")


def path_query():
    return QueryGraph.from_edges([(0, 1), (1, 2)], node_labels={0: 0, 1: 1, 2: 2})


def chain_events(base=10):
    return [
        StreamEvent.insert(base, base + 1, src_label=0, dst_label=1),
        StreamEvent.insert(base + 1, base + 2, src_label=1, dst_label=2),
    ]


def pool_config():
    return EngineConfig(
        stream=StreamConfig(batch_size=4),
        parallel=ParallelConfig(backend="process", num_workers=2),
    )


class FlakyPool:
    """A stand-in pool whose close() raises once, then succeeds."""

    publish_count = 0

    def __init__(self):
        self.close_calls = 0

    @property
    def usable(self):
        return False

    def close(self):
        self.close_calls += 1
        if self.close_calls == 1:
            raise OSError("worker refused to die")


class TestClose:
    def test_close_is_idempotent(self):
        engine = MnemonicEngine(path_query())
        engine.close()
        engine.close()
        # A serial engine has no pool; it stays usable after close.
        assert engine.batch_inserts(chain_events()).num_positive == 1

    def test_close_idempotent_with_real_pool(self):
        pytest.importorskip("multiprocessing.shared_memory")
        engine = MnemonicEngine(path_query(), config=pool_config())
        pool = engine.multi._pool
        if pool is None:
            pytest.skip("pool could not spawn in this environment")
        engine.close()
        assert engine.multi._pool is None
        assert not pool.usable
        engine.close()  # second close must not touch the dead pool

    def test_pool_reference_dropped_even_when_close_raises(self):
        engine = MnemonicEngine(path_query())
        flaky = FlakyPool()
        engine.multi._pool = flaky
        engine.multi._pool_finalizer = None
        with pytest.raises(OSError):
            engine.close()
        # The reference is gone: a retry is a no-op, not a double close.
        assert engine.multi._pool is None
        engine.close()
        assert flaky.close_calls == 1

    def test_exit_closes_pool_when_body_raises(self):
        """reset_index() raising mid-run must not leak the worker pool."""
        pytest.importorskip("multiprocessing.shared_memory")
        with pytest.raises(RuntimeError, match="index corruption"):
            with MnemonicEngine(path_query(), config=pool_config()) as engine:
                pool = engine.multi._pool
                if pool is None:
                    pytest.skip("pool could not spawn in this environment")
                engine.batch_inserts(chain_events())

                def broken_rebuild():
                    raise RuntimeError("index corruption")

                engine.index_manager.rebuild = broken_rebuild
                engine.reset_index()
        assert engine.multi._pool is None
        assert not pool.usable

    def test_exit_does_not_mask_body_exception_with_teardown_failure(self):
        engine = MnemonicEngine(path_query())
        engine.multi._pool = FlakyPool()
        engine.multi._pool_finalizer = None
        with pytest.raises(ValueError, match="body failure"):
            with engine:
                raise ValueError("body failure")
        assert engine.multi._pool is None

    def test_exit_raises_teardown_failure_when_body_succeeds(self):
        engine = MnemonicEngine(path_query())
        engine.multi._pool = FlakyPool()
        engine.multi._pool_finalizer = None
        with pytest.raises(OSError, match="worker refused to die"):
            with engine:
                pass
        assert engine.multi._pool is None


class TestContextManagerReuse:
    def test_engine_usable_across_with_blocks_serial(self):
        engine = MnemonicEngine(path_query())
        with engine:
            first = engine.batch_inserts(chain_events())
        with engine:
            second = engine.batch_inserts(chain_events(base=20))
        assert first.num_positive == 1
        assert second.num_positive == 1

    def test_process_engine_falls_back_after_close(self):
        """After close() a process-backend engine keeps answering batches
        (serially) — results stay correct without the pool."""
        pytest.importorskip("multiprocessing.shared_memory")
        engine = MnemonicEngine(path_query(), config=pool_config())
        with engine:
            engine.batch_inserts(chain_events())
        result = engine.batch_inserts(chain_events(base=20))
        assert result.num_positive == 1
