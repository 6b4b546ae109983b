"""Laboratory for quasimode nonconcentration on completely integrable tori.

Exact rational-relation arithmetic decides the resonance structure of a
frequency vector, exact integer arithmetic on the values of the floats
decides the nondegeneracy hypotheses, a factory builds certified quasimode
families for the model operator, and coherent-state mass maps render the
nonconcentration verdicts.
"""

import os
import sys
import warnings

# One BLAS thread, set before numpy loads: reduction orders, and with them
# artifact bytes, must not depend on the ambient thread count.  Once numpy
# is loaded, its BLAS has read its thread count and the pin comes too late.
if "numpy" in sys.modules and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
    warnings.warn(
        "toruslab was imported after numpy without OPENBLAS_NUM_THREADS=1, so BLAS may "
        "run on several threads and the artifact bytes of runs with a transverse torus "
        "of dimension q >= 2 may follow the ambient thread count; import toruslab first "
        "or set OPENBLAS_NUM_THREADS=1",
        RuntimeWarning,
        stacklevel=2,
    )
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

from .exact import (
    ExactNumber,
    FrequencyVector,
    IntegerLattice,
    InvariantViolation,
    IrrationalBasis,
    UnimodularSplitting,
    find_resonant_mode,
    integer_kernel,
    relation_lattice,
    smith_normal_form,
    split_frequencies,
    unimodular_inverse,
)
from .nondegeneracy import HessianForm, bordered_determinant, is_quasiconvex
from .operator import ModelOperatorSpec, OperatorOnTPrime, apply_model_operator, transverse_operator
from .quasimode import (
    ConcentrationReport,
    DecayFit,
    GalerkinNullspace,
    OrderReport,
    QuasimodeFamily,
    UniqueContinuation,
    build_factory_quasimode,
    check_mode_concentration,
    decompose_along_T,
    default_h_ladder,
    fit_decay_exponent,
    galerkin_nullspace,
    unique_continuation_constant,
    verify_quasimode_order,
)
from .trigpoly import TrigPolynomial
from .wavefront import (
    MassMap,
    PhaseSpaceGrid,
    VerdictThresholds,
    WavefrontReport,
    nonconcentration_report,
    wavefront_mass_map,
)

__version__ = "0.1.0"
