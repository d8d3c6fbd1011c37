"""Calibration kernel: a fixed piece of work that does not touch ``uqcm``.

The benchmark is meant for small shared machines, whose speed for one thread
drifts by up to about 1.7x in spells lasting seconds to minutes.  A wall time
measured in a slow spell says more about the neighbours than about the
program.  So the kernel is timed right after every op and around every
set-up, and each time metric is rescaled by the mean kernel time of its pass
or set-up:

    reported = wall * REF_S / kernel time measured beside it

A change to ``uqcm`` moves the wall time but not the kernel, so it moves the
reported time by the same share.  A drift of the machine moves both, and
cancels.  On a machine where the kernel takes ``REF_S`` the reported times
are the wall times.

The kernel mixes the two kinds of work the library does: mask building and
fancy indexing over a 2^11-amplitude array, as in ``circuit.apply``, and
tuples, dicts and JSON text, as in synthesis.  Import this module only after
the thread limits are set, because it loads numpy.
"""
from __future__ import annotations

import json
import time

import numpy as np

# about the median kernel time on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4)
REF_S = 0.03

_QUBITS = 11


def _amplitudes() -> float:
    idx = np.arange(1 << _QUBITS)
    amps = np.linspace(0.0, 1.0, 1 << _QUBITS) + 0j
    for k in range(180):
        sel = np.ones(1 << _QUBITS, dtype=bool)
        for q in (k % _QUBITS, (3 * k + 1) % _QUBITS):
            sel &= ((idx >> q) & 1) == 1
        tmask = 1 << ((5 * k + 2) % _QUBITS)
        i0 = idx[sel & ((idx & tmask) == 0)]
        i1 = i0 | tmask
        a0, a1 = amps[i0], amps[i1]
        amps[i0] = 0.6 * a0 + 0.8 * a1
        amps[i1] = 0.8 * a0 - 0.6 * a1
    return float(abs(amps).sum())


def _objects() -> int:
    table: dict[tuple[int, int], int] = {}
    for i in range(12000):
        key = (i % 997, i & 7)
        table[key] = table.get(key, 0) + i
    records = [{"kind": "ry", "target": i % 7, "controls": [{"q": j} for j in range(i % 4)]}
               for i in range(2200)]
    return len(table) + len(json.loads(json.dumps(records)))


def sample() -> float:
    """Wall seconds of one run of the kernel."""
    t0 = time.perf_counter()
    _amplitudes()
    _objects()
    return time.perf_counter() - t0


def run(seconds: float) -> list[float]:
    """Run the kernel once, then again until its runs add up to ``seconds``."""
    samples = [sample()]
    while sum(samples) < seconds:
        samples.append(sample())
    return samples
