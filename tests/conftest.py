"""Pin the BLAS thread count before numpy loads.

LAPACK results such as eigenvectors can differ in their last bits between
thread counts, and ``test_cli_pins.py`` pins ``--json`` bytes, so the tests
run on one BLAS thread, the count ``perfbench/run.py`` sets, whatever the
calling environment says.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
