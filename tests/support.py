"""Helpers shared by the test modules."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fockamp


def run_python(args, **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run`` of this interpreter with ``args``, the directory
    that holds the fockamp under test first on the child's PYTHONPATH, so
    the child imports the same package whether or not it is installed."""
    root = str(Path(fockamp.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=root + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def dense_rounding(grid, closed) -> float:
    """Bound on the rounding of max |E_grid(o) - E_closed(o)| over the dense
    elements V diag(w) V^dag of both POVMs (PovmGrid.elements,
    ClosedFormPovm.element).

    An entry sums d products v_ik w_k conj(v_jk). In floating point the sum
    is off by at most sqrt(2) gamma_{d+2} sum_k |v_ik| |w_k| |v_jk| (Higham,
    Accuracy and Stability, Lemmas 3.3 and 3.5; gamma_n = n u / (1 - n u),
    u = eps/2), at most (d + 3) eps max|w| for unitary V, since
    sum_k |v_ik| |v_jk| <= 1 (Cauchy-Schwarz). Each difference holds two
    such entries.
    """
    d = grid.weights.shape[1]
    w = max(float(np.abs(grid.weights).max()),
            float(np.abs(closed.weights(grid.outcomes)).max()))
    return 2 * (d + 3) * np.finfo(float).eps * w
