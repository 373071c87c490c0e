"""``python -m orlicz_lab``: the ``orlicz-lab`` command line."""

from .cli import main

main()
