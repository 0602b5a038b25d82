"""1-D quantum barrier toolkit.

Exact transfer-matrix scattering for piecewise potentials, the
multiple-reflection composition algebra for chained barriers, first-order
(Riccati) reflection/transmission equations for arbitrary profiles,
resonance searches, multi-well bound states and band structure of periodic
cells under compression.

Internal units are natural units (hbar = 1, m = 1/2, k = sqrt(E));
:class:`barrier1d.potential.UnitSystem` converts eV/Angstrom and erg/cm
inputs.  The hot kernels (:mod:`barrier1d._kernels`) are plain numpy:
scalar slab loops for single-energy solves, one vectorised slab-entry
routine for energy grids.
"""

from .potential import (Constant, Linear, Potential, Sampled, Segment,
                        UnitSystem, build_rect_pair, compress, load_potential,
                        save_potential, wave_number)
from .oracle import (Barrier1dError, ConditioningError, ScatterData, free_data,
                     solve_exact)
from .compose import (FluctuationResult, GapJoin, HeightDistribution,
                      LossModel, LossRangeError, PairTransmittance,
                      ResonantDenominatorError,
                      averaged_transmittance_center_fluct, compose_chain,
                      compose_pair, compose_pair_lossy, lossy_gap_data,
                      resonance_condition_met, three_barrier_closed_form,
                      transmittance_pair)
from .riccati import (IntegrationError, RiccatiState, Trajectory,
                      integrate_alpha_form, integrate_complex, integrate_real,
                      slab_data, small_slab_coefficients)
from .resonance import (DensityRow, NoResonanceError, ResonanceFamily,
                        find_resonant_E, find_resonant_L, pair_chain,
                        rect_pair_resonant_L, resonance_density)
from .spectra import (BandSet, LevelCountError, LevelScan, LevelSet, WellSystem,
                      band_structure, bound_levels, bound_levels_shooting,
                      compression_scan, level_scan, tight_binding_energy)

__version__ = "0.1.0"
