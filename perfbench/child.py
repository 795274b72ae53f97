"""Run ``repro`` CLI commands in a fresh interpreter, marking when the CLI is ready.

Usage::

    python perfbench/child.py sweep platform-energy ...   # one command
    python perfbench/child.py --batch commands.json       # a JSON list of argv lists

It does what the ``repro`` console script does (``repro.cli.main(argv)``),
and appends ``ready <t>`` (``repro.cli`` imported, command about to start)
and ``done <t>`` (command returned) to the file named by
``PERFBENCH_MARKS``, with ``t`` on the system-wide monotonic clock.  When
``PERFBENCH_SPANS`` names a file, the layers are traced (see
``tracer.py``) and the spans are written there when the process exits;
``PERFBENCH_PARENT`` is the span of the driver that this process's root
spans belong under.
"""

import atexit
import json
import os
import signal
import sys
import time

# perfbench's own directory goes last, so it can never shadow a module
sys.path.append(sys.path.pop(0))


def _mark(label: str) -> None:
    path = os.environ.get("PERFBENCH_MARKS")
    if path:
        with open(path, "a") as handle:
            handle.write(f"{label} {time.monotonic()!r}\n")


def main(argv: list[str]) -> int:
    # the driver stops `repro serve` with SIGINT, as Ctrl-C would; a process
    # started with SIGINT ignored (a background job of a non-interactive
    # shell, say) would otherwise ignore it and be killed after the grace time
    signal.signal(signal.SIGINT, signal.default_int_handler)
    spans_path = os.environ.get("PERFBENCH_SPANS")
    if spans_path:
        from tracer import Tracer

        tracer = Tracer(root_parent=os.environ.get("PERFBENCH_PARENT"))
        atexit.register(tracer.dump, spans_path)
        with tracer.span("cli.import"):
            import repro.cli
        with tracer.span("bench.wrap"):
            tracer.install()
    else:
        import repro.cli

    if argv[:1] == ["--batch"]:
        with open(argv[1]) as handle:
            commands = json.load(handle)
    else:
        commands = [argv]
    _mark("ready")
    code = 0
    for command in commands:
        code = repro.cli.main(command) or code
    _mark("done")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
