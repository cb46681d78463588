"""nvbench: the repository's benchmark (see README.md; entry point run.py)."""
