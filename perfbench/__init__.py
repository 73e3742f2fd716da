"""End-to-end benchmark of the TDG/ExoCore pipeline (see README.md)."""
