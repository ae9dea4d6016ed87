"""Design of 1D Schrodinger potentials minimizing the Fermi-golden-rule
decay rate of a parametrically forced bound state."""

from .grid import (
    BetaMode,
    DesignParams,
    Grid,
    PotentialField,
    make_grid,
    sech_well,
    h1_norm_sq,
)
from .errors import (
    ConfigError,
    InfeasiblePoint,
    InfeasibleStart,
    NoBoundState,
    PdpError,
    ResonanceBelowCutoff,
    SolverFailure,
)

__version__ = "0.1.0"
