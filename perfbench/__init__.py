"""End-to-end and per-layer benchmark of the containment stack (see README.md)."""
