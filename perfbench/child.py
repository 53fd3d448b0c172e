"""One cyclozeta CLI command in a fresh interpreter, timed from inside.

Usage: python3 child.py '<json request>'; the request has ``argv`` (None for
an import-only probe) and ``trace`` (bool).  The last line of stdout is one
JSON object: import time, in-process latency of ``cli.main``, exit code, the
command's stdout, how fast the host ran the import and the command (see
``HostSpeed``) and, when traced, the per-layer totals.
"""

import sys
import time

SAMPLE_EVERY_S = 0.05  # of the command's CPU time


def reference_loop() -> int:
    """Fixed pure-Python work of about a millisecond: small-int arithmetic,
    dict stores and big-int products, like the package's kernels."""
    s = 0
    d = {}
    for i in range(6000):
        s += (i * i + (i >> 3)) % 7
        d[i & 255] = s
    big = 3**200
    m = 5**210
    for i in range(600):
        big = (big * 7 + i) % m
    return s + big % 7


class HostSpeed:
    """Times ``reference_loop`` on demand and, inside ``with``, from a SIGPROF
    handler every ``SAMPLE_EVERY_S`` of CPU time.

    Other tenants slow this host by up to half for seconds at a time, so
    these samples measure how fast the host ran the code between them.
    ``spent_s`` is the time the samples took, for the caller to take off its
    timings.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        start = time.perf_counter()
        for _ in range(3):  # let the interpreter specialise the loop first
            reference_loop()
        self.spent_s = time.perf_counter() - start

    def sample(self, *_signal) -> None:
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent_s += took

    def mean_since(self, first: int) -> float:
        # a mean, since a timing sums the slowdown over every moment of it
        taken = self.samples[first:]
        return sum(taken) / len(taken)

    def __enter__(self) -> "HostSpeed":
        self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()


HOST = HostSpeed()
HOST.sample()
HOST.sample()
_t0 = time.perf_counter()
import cyclozeta  # noqa: E402
import cyclozeta.cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0
HOST.sample()
HOST.sample()
SETUP_REF_S = HOST.mean_since(0)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402


def main() -> None:
    request = json.loads(sys.argv[1])
    result = {"setup_s": SETUP_S, "setup_ref_s": SETUP_REF_S}
    argv = request["argv"]
    if argv is not None:
        tracer = None
        if request["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        out = io.StringIO()
        first = len(HOST.samples)
        with HOST:
            start = time.perf_counter()
            spent0 = HOST.spent_s
            try:
                with contextlib.redirect_stdout(out):
                    rc = cyclozeta.cli.main(argv)
            except Exception:  # the benchmark records the failure and carries on
                rc = None
                result["error"] = traceback.format_exc(limit=3)
            result["cmd_s"] = time.perf_counter() - start - (HOST.spent_s - spent0)
        result["ref_s"] = HOST.mean_since(first)
        result["ref_samples"] = len(HOST.samples) - first
        result["rc"] = rc
        result["stdout"] = out.getvalue()
        if tracer is not None:
            result["trace"] = tracer.snapshot()
    result["ref_spent_s"] = HOST.spent_s
    print(json.dumps(result))


if __name__ == "__main__":
    main()
