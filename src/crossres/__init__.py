"""crossres: a desk-scale laboratory for cross-resolution few-step diffusion distillation."""
import os

# crossres targets one core. Pin BLAS to one thread before numpy loads: this
# only takes effect if crossres is imported before numpy, and a value set in
# the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
