"""Benchmark harness for the mbem variant-grid command (see ../NOTES.md)."""
