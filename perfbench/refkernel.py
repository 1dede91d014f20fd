"""Fixed reference kernel whose duration measures the current speed of a core.

The machine the benchmark was defined on is shared: neighbours slow identical
work by up to 2x for stretches of seconds to minutes, and the slowdown shows
in thread CPU time too.  The kernel is shaped like the program's work: small
dense complex linear algebra, and many numpy calls on 4x4 arrays, whose cost
is mostly interpreter and call overhead.  Over 10 s windows of contended
operation, its duration tracked that of fixed tomography and CLI work more
closely than either half alone.  The gated metrics are expressed in units of
its median duration over a run.  It is the benchmark's own code, so no change
to spintomo can speed it up.
"""
import time

import numpy as np

REPS = 40
# Duration of the kernel on an idle core of the defining machine: set-up
# times are reported in seconds of a core of that speed.
NOMINAL_S = 2e-3
_MATRIX = np.random.default_rng(0).standard_normal((8, 16)).view(complex)
_MATRIX4 = np.random.default_rng(1).standard_normal((4, 8)).view(complex)
_FLIP = np.array([[0, 1], [1, 0]], dtype=complex)


def kernel() -> float:
    acc = 0.0
    for _ in range(REPS):
        b = _MATRIX @ _MATRIX.conj().T
        acc += float(np.linalg.eigvalsh(b)[0]) + sum(j * j for j in range(20))
        c = _MATRIX4 @ np.kron(_FLIP, _FLIP)
        d = c.conj().T
        acc += np.trace(d @ c).real + float(np.max(np.abs(c - d)))
    return acc


def time_kernel() -> float:
    """Duration of one run of the kernel, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
