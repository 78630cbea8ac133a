"""End-to-end benchmark of the CPDG reproduction (see ``README.md``)."""

# Thread count changes loss bits and adds user time, so ``run.py`` pins
# these to 1 before numpy is imported and every result records them.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
