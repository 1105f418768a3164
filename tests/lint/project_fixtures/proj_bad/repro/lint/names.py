"""A table of clock names as strings: it references none of the defs."""

_CLOCK_READS = frozenset({"monotonic_ns", "perf_counter_ns"})
