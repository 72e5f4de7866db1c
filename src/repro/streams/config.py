"""Stream configuration (the paper's user-supplied "stream configurations")."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.utils.validation import ConfigurationError, check_positive


class StreamType(str, Enum):
    """Supported stream semantics."""

    INSERT_ONLY = "insert_only"
    INSERT_DELETE = "insert_delete"
    SLIDING_WINDOW = "sliding_window"


@dataclass
class StreamConfig:
    """Knobs that customise snapshot generation.

    Attributes
    ----------
    stream_type:
        One of :class:`StreamType`.  ``SLIDING_WINDOW`` automatically
        produces deletions for edges whose timestamp falls out of the
        window; the other two only relay explicit stream events.
    batch_size:
        Maximum number of events grouped into one snapshot.  Batch size 1
        reproduces strictly per-edge processing (the TurboFlux regime);
        the paper's default is 16K.
    max_batch_delay:
        Adaptive batching: when set, a snapshot is flushed as soon as
        *either* ``batch_size`` events accumulated *or* this many
        seconds passed since the batch's first event — whichever comes
        first — so batches stay small under low load (bounding per-event
        latency) and grow to ``batch_size`` under bursts (amortising
        per-snapshot cost).  Time is broker arrival time under
        :class:`~repro.core.service.MnemonicService` (whose ``poll`` also
        flushes a partial batch while the stream is idle), and the
        events' own timestamps for ``engine.run`` replays.  ``None`` (default)
        preserves fixed-size batching bit-identically.  Applies to
        ``INSERT_ONLY`` and ``INSERT_DELETE`` streams; ``SLIDING_WINDOW``
        snapshots are already time-driven by ``stride``.
    window:
        Length of the sliding window, in the stream's time units.  Only
        used for ``SLIDING_WINDOW`` streams.
    stride:
        How far the window advances between snapshots, in time units.
        Only used for ``SLIDING_WINDOW`` streams.  Each snapshot then
        contains all events inside the new stride plus deletions of the
        edges that slid out of the window.
    """

    stream_type: StreamType = StreamType.INSERT_ONLY
    batch_size: int = 16 * 1024
    max_batch_delay: float | None = None
    window: float | None = None
    stride: float | None = None

    def __post_init__(self) -> None:
        if isinstance(self.stream_type, str):
            self.stream_type = StreamType(self.stream_type)
        check_positive(self.batch_size, "batch_size")
        if self.max_batch_delay is not None:
            check_positive(self.max_batch_delay, "max_batch_delay")
            if self.stream_type is StreamType.SLIDING_WINDOW:
                raise ConfigurationError(
                    "max_batch_delay applies to insert_only / insert_delete "
                    "streams; sliding_window snapshots are already time-driven "
                    "by `stride`"
                )
        if self.stream_type is StreamType.SLIDING_WINDOW:
            if self.window is None or self.stride is None:
                raise ConfigurationError(
                    "sliding_window streams require both `window` and `stride`"
                )
            check_positive(self.window, "window")
            check_positive(self.stride, "stride")
            if self.stride > self.window:
                raise ConfigurationError(
                    f"stride ({self.stride}) must not exceed window ({self.window})"
                )
