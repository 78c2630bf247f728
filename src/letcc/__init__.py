"""Learning-theoretic coded computing.

Spline-based encoding and decoding of batched computations across unreliable
workers, with Berrut and Lagrange baselines and a seeded Monte-Carlo
experiment harness.
"""

import os as _os

# Pin BLAS pools (when the user has not configured them) before numpy loads:
# a multithreaded BLAS may split reductions differently between runs, and
# trial results must be bit-identical across reruns.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .points import (
    InterpolationGrid,
    MeshStats,
    chebyshev_first,
    chebyshev_grid,
    chebyshev_second,
    mesh_stats,
)
from .spline import SplineFit, fit
from .kernel import KernelFit, kernel_fit, sobolev_kernel
from .coding import (
    CodedBatch,
    Dataset,
    DecodeFailure,
    DecodeResult,
    decode,
    encode,
    encoder_training_error,
)
from .baselines import (
    BerrutInterpolant,
    LagrangeCodec,
    bacc_decode,
    bacc_encode,
    lcc_decode,
    lcc_encode,
)
from .sim import (
    MonteCarloResult,
    NoiseModel,
    RiskBoundViolation,
    StragglerModel,
    TrialColumns,
    TrialMetrics,
    TrialSetup,
    WorkerFunction,
    WorkerReturns,
    apply_workers,
    make_worker,
    monte_carlo,
    monte_carlo_lambdas,
    relacc,
    run_trial,
    sample_stragglers,
)

__version__ = "0.1.0"
