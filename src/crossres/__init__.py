"""crossres: a desk-scale laboratory for cross-resolution few-step diffusion distillation."""
import os

# crossres targets one core. Pin BLAS to one thread before numpy loads: this
# only takes effect if crossres is imported before numpy, and a value set in
# the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _settle_heap() -> None:
    """Fix glibc's malloc mmap and trim thresholds (32 MiB, 512 MiB).

    Under glibc's defaults the batched net page-faults every large numpy
    temporary back in from scratch, all run long; both thresholds are
    needed to stop it. A malloc setting in the environment wins, and where
    there is no glibc this does nothing.
    """
    env = os.environ
    if ("MALLOC_MMAP_THRESHOLD_" in env or "MALLOC_TRIM_THRESHOLD_" in env
            or "glibc.malloc." in env.get("GLIBC_TUNABLES", "")):
        return
    import ctypes

    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 512 << 20)  # M_TRIM_THRESHOLD


_settle_heap()

__version__ = "0.1.0"
