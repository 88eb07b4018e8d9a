"""`python -m mpgames`: the `mpgames` command line.  The commands run in
the one module object `mpgames.cli`, which `_tools` imports as well; `python
-m mpgames.cli` would compile `cli` a second time, to run it as
`__main__`."""

from mpgames.cli import main

if __name__ == "__main__":
    main(prog_name="python -m mpgames")
