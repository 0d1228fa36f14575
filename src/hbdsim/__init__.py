"""Hypersurface Bohm-Dirac trajectory simulator.

Exact multi-time wave functions for N noninteracting Dirac particles,
space-like foliations by generating functions, guided trajectory
integration in the leaf-label parametrization, and Monte Carlo testing of
quantum-equilibrium equivariance.
"""

from .geometry import (
    SpinDimensionMode,
    gamma,
    lift_to_particle,
    minkowski_dot,
    slash,
)
from .wavefunction import (
    NParticleWavefunction,
    PlaneWaveMode,
    dirac_residual,
    make_mode,
)
from .foliation import (
    ConstantNormal,
    FlatTime,
    Foliation,
    GraphLeaf,
    RippleProfile,
    TanhProfile,
    frobenius_residual,
    twisted_field,
)
from .currents import current_jk, density_rho, divergence_residual
from .dynamics import (
    TrajectoryEnsemble,
    bd_flat_velocity,
    integrate,
    integrate_ensemble,
    integrate_flat_bd,
)
from .ensemble import (
    CrossingSet,
    EquivarianceReport,
    LeafDensity,
    crossings,
    equivariance_test,
    flat_continuity_residual,
    sample_leaf,
)
from .errors import (
    BoundaryLeak,
    ConsistencyError,
    EmptyMarginal,
    EnvelopeBreach,
    LabelOutOfRange,
    NodeProximity,
    NoSamples,
    SamplerStall,
    ScenarioError,
    SimulationError,
    ValidityBreach,
)

__version__ = "0.1.0"
