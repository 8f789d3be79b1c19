"""Run `sasvkit` and report its peak memory, optionally tracing it.

    python3 perfbench/cli_shim.py PEAK_OUT SPANS_OUT|- <sasvkit arguments...>

Behaves like `python3 -m sasvkit.cli <arguments>` (same output and exit
code). On exit it writes this process's peak resident set in KiB to
PEAK_OUT and, unless SPANS_OUT is `-`, the spans and counts recorded by
tracer.py to SPANS_OUT.
"""

import resource
import sys


def peak_rss_kb():
    """Peak resident set of this process image.

    VmHWM is used because it starts afresh at exec, whereas ru_maxrss
    also keeps the high-water mark of the parent that spawned us.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


if __name__ == "__main__":
    import sasvkit.cli

    peak_out, spans_out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t = None
    if spans_out != "-":
        import tracer

        t = tracer.Tracer()
        t.install()
    try:
        code = sasvkit.cli.main(argv)
    finally:
        if t is not None:
            t.dump(spans_out)
        with open(peak_out, "w") as fh:
            fh.write(str(peak_rss_kb()))
    sys.exit(code)
