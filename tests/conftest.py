"""Shared pytest plumbing: surfaces the acceptance-criterion verdict
lines in the terminal summary, where output capture cannot swallow
them.  It also pins BLAS to one thread before any test imports numpy:
on a 2-core machine a second OpenBLAS thread makes the dense N=100
solves several times slower, not faster."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
