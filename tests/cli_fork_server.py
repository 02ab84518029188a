"""Run `relpos` CLI examples, each in its own forked child, for the fuzz tests.

Reads one JSON request a line from stdin: {"argv": [...], "files": {name:
text}}.  It writes the files into its working directory, forks one child that
calls cli.main(argv) there with an address space of CHILD_ADDRESS_SPACE and an
alarm of CHILD_SECONDS, waits for it, and answers with one JSON line: {"exit":
the child's exit code (minus the signal number when a signal ended it),
"stderr": the tail of what it wrote to stderr}.  At most one child is alive at
a time.

relpos.cli is imported once, here, so an example costs a fork rather than an
interpreter start.  Start this process with OPENBLAS_NUM_THREADS=1, so it has
no thread besides its own when it forks:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/cli_fork_server.py
"""

import json
import os
import resource
import signal
import sys
import tempfile
import traceback

from relpos.cli import main

CHILD_ADDRESS_SPACE = 1 << 30
CHILD_SECONDS = 10
STDERR_TAIL = 4000


def _child(argv) -> None:
    """Run main(argv) with stdout discarded; never returns."""
    code = 1
    try:
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))
        signal.alarm(CHILD_SECONDS)
        devnull = os.open(os.devnull, os.O_RDWR)
        os.dup2(devnull, 0)
        os.dup2(devnull, 1)
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse exits 2 on a bad flag and 0 on --help
            code = exc.code if isinstance(exc.code, int) else 1
        except BaseException:
            traceback.print_exc()
            code = 1
        sys.stdout.flush()
        sys.stderr.flush()
    finally:
        os._exit(code)


def serve(work: str) -> None:
    err_path = os.path.join(work, "stderr")
    for line in sys.stdin:
        request = json.loads(line)
        for name, text in request["files"].items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        with open(err_path, "w+b") as err:
            pid = os.fork()
            if pid == 0:
                os.dup2(err.fileno(), 2)
                _child(request["argv"])
            _, status = os.waitpid(pid, 0)
            err.seek(0)
            tail = err.read().decode("utf-8", "replace")[-STDERR_TAIL:]
        answer = {"exit": os.waitstatus_to_exitcode(status), "stderr": tail}
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        serve(work)
