"""``python -m liesplit``: the ``liesplit`` command line (see ``cli``)."""

from .cli import main

if __name__ == "__main__":
    main(prog_name="liesplit")
