"""End-to-end and per-layer benchmark of cesgrowth; see README.md."""
