"""Linearizations of quadratic two-parameter matrix polynomials in Newton bases.

The package builds companion and e1-ansatz pencils for quadratic matrix
polynomials in Newton form (monomial form is the zero-node case), certifies
the linearization property (determinant-ratio sampling, and the explicit
unimodular factors checked exactly on the blocks), and assembles the
Kronecker operator determinants coupling a pair of such problems. From
those singular operators it solves the joint spectrum of a pair at desk
scale on their regular part, found by a staircase reduction, using numpy only.
"""

from .errors import (
    AdmissibilityError,
    DegenerateProblemError,
    Newton2PepError,
    NodeMismatchError,
    NonSquareError,
    SharedFactorError,
)
from .linalg import (
    annulus_points,
    complex_normal,
    small_dense_eigen,
    smallest_singular_value,
)
from .matpoly import (
    COEFF_KEYS,
    MatrixPoly2,
    NewtonNodes,
    newton_six,
)
from .spaces import (
    AnsatzVector,
    MembershipResult,
    NewtonPencil,
    membership_newton,
    select_M,
)
from .linearize import (
    E1FreeParams,
    GeneralAnsatzPencil,
    LinearizationReport,
    UnimodularWitnessPair,
    assemble_e1_blocks,
    companion_pencil,
    construct_e1_newton,
    construct_general_ansatz,
    member_witness,
    unimodular_witnesses,
    verify_linearization,
)
from .twoparam import (
    DeltaTriple,
    QtepPair,
    SingularityCertificate,
    SpectrumPoint,
    SpectrumSample,
    certify_singular,
    delta_operators,
    pair_linearize,
    spectrum_pair_oracle,
    verify_spectrum_match,
)

__version__ = "0.1.0"
