"""Stateful artifacts: sharded inverted indexes for the linker."""
