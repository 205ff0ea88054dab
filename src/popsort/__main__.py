"""`python -m popsort`: the command-line interface of `popsort.cli`."""
import sys

from .cli import main

if __name__ == "__main__":  # not when a spawned worker re-imports it
    sys.exit(main())
