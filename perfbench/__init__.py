"""Paper-regime benchmark for the NDM reproduction (see README.md)."""
