"""Process set-up shared by the benchmark's entry points.

`prepare()` must run before numpy is imported: it runs OpenBLAS on one
thread, puts the checkout's `src/` first on the import path and refuses to
continue when the checkout does not hold the mpglearn sources and configs
(for example when only the benchmark directory was copied).

One BLAS thread: on a 2-core host a second thread made scg8-exact no faster
(4.7-5.9 s per cmd_run against 4.2-5.4 s) while doubling its CPU time in
spin-waits, which leaves the run more exposed to other load on the host.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / "_work"
BLAS_THREADS = "1"


class MissingCheckout(RuntimeError):
    pass


def prepare():
    """Configure this process to run mpglearn from the checkout's sources."""
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    src = ROOT / "src"
    needed = [src / "mpglearn" / "__init__.py", ROOT / "configs" / "scg4.ini",
              ROOT / "configs" / "distancing.ini",
              ROOT / "configs" / "dags" / "routing6_steep.dag"]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if absent:
        raise MissingCheckout("not an mpglearn checkout; missing "
                              + ", ".join(absent))
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import mpglearn
    origin = Path(mpglearn.__file__).resolve()
    if src not in origin.parents:
        raise MissingCheckout(f"mpglearn was imported from {origin}, "
                              f"not from {src}")
    return mpglearn
