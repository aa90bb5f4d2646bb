"""`python -m rieszdrop`: the `rieszdrop` command."""

from .cli import entrypoint

entrypoint()
