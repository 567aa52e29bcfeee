"""Run one ``annealgap`` command as the console script does, optionally traced.

    python3 perfbench/child.py RSS_PATH SPANS_PATH OP_ID ANNEALGAP_ARGS...

With SPANS_PATH ``-`` the command runs untraced. Otherwise the span tracer is
installed after the package is imported and before the command starts, and
the spans go to SPANS_PATH when the command ends. The root span starts before
numpy and annealgap are imported, so its self time is the import cost; the
installation gets a span of its own, ``trace.install``. The exit code is the
command's own.

The process's own peak resident set (``VmHWM``, in kB) is written to
RSS_PATH at exit. ``wait4`` in the parent cannot give it: on Linux the
child's ``ru_maxrss`` also covers the parent's high-water mark across fork
and exec.
"""

import time

_T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def peak_rss_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    rss_path, spans_path, op, *command = argv
    from annealgap import cli

    tracer = None
    if spans_path != "-":
        start = time.perf_counter()
        from tracer import INSTALL, Tracer

        tracer = Tracer(op)
        tracer.start = _T0
        tracer.install()
        tracer.spans.append([-3, INSTALL, start, time.perf_counter(), 0, op, True, 0])

    try:
        return cli.main(command)
    finally:
        if tracer is not None:
            tracer.dump(spans_path)
        Path(rss_path).write_text(f"{peak_rss_kb()}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
