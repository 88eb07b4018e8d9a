"""In-process invocation of the `mpgames` command line, with a wall limit.

`invoke` runs one subcommand exactly as the `mpgames` entry point would,
but inside this process: standard output and error are captured and the
exit code is read from the `SystemExit` the command raises.  An exception
the command does not handle ends it as it would end the process: traceback
on standard error, exit code 1.  A SIGALRM timer bounds the call; a call
that overruns raises `OpTimeout` out of the solver and is reported as exit
code `TIMEOUT`.
"""

from __future__ import annotations

import contextlib
import io
import signal
import traceback

TIMEOUT = "timeout"


class OpTimeout(BaseException):
    """Raised by the alarm handler.  A BaseException, so that no `except
    Exception` inside the program can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def invoke(main, args, limit_s: float):
    """Run `mpgames <args>` in-process; returns (exit code, stdout, stderr).
    The exit code is `TIMEOUT` when the call ran past `limit_s` seconds."""
    import click

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    code = 0
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            try:
                main.main(args=list(args), prog_name="mpgames",
                          standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except click.ClickException as exc:
                exc.show()
                code = exc.exit_code
            except Exception:  # an uncaught error would end the process
                traceback.print_exc()
                code = 1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        code = TIMEOUT
    finally:
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()
