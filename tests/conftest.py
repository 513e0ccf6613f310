"""Shared pytest wiring.

The acceptance tests register one line per criterion in ACCEPTANCE_LINES;
the terminal-summary hook below prints them after the run so the criterion
verdicts are visible without -s. propagator_pair reads the pair as most
tests want it, with the unitary complex.
"""

from qcwalk.spectral import real_propagators

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def propagator_pair(sd, t):
    """exp(L t) and the complex exp(i L t), both read from spectral.real_propagators."""
    p, re, im = real_propagators(sd, t)
    return p, re + 1j * im
