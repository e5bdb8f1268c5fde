"""Entry point for ``python -m schurkit``."""

from .cli import main

main()
