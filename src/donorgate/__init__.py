"""Feasibility tooling for optically gated donor spins in diamond.

The package walks the whole argument chain: where substitutional dopants sit
and how many land in a patch (`lattice`), what envelope a given binding
energy implies (`donor`, `orbitals`), the exchange and transfer integrals
between two such envelopes (`integrals`), whether the resulting optical
lines are distinguishable (`spectra`), what two-qubit gate the excited
exchange realizes (`spins`), whether a cluster can be mapped out blind and
timed from its own scan (`configure`), and all of it end to end per patch
(`feasibility`, `scenario`).

Lengths are in angstrom, energies in meV, times in ps unless a name says
otherwise; all linewidth-like parameters are FWHM.
"""

from .constants import (BOHR_ANGSTROM, DIAMOND_LATTICE_CONSTANT, HBAR_MEV_PS,
                        HC_MEV_NM, RYDBERG_EV, medium_hartree_mev)
from .donor import (DonorModel, ZeemanCheck, model_from_ionization,
                    with_radius_scale, zeeman_check)
from .errors import (DependencyError, DimensionError, DonorgateError,
                     FitFailureError, IllConditionedGeometryError,
                     InsufficientRegionError, InvalidModelError,
                     InvalidSpecError, NoCleanGateError, PreconditionError,
                     ScenarioValidationError, StageError)
from .lattice import (DopedRegion, LatticeSpec, NeighborStatistics, ShellTable,
                      neighbor_statistics, place_dopants, shell_sizes,
                      sphere_count_report)
from .orbitals import GaussianExpansion, OrbitalSpec, fit_gaussian_expansion
from .integrals import (Curve, PairIntegralResult, TransferSplitting,
                        exchange_curve, pair_integrals, transfer_splitting_curve)
from .spectra import (SpectralModel, TransitionLine, gate_transitions,
                      resolvable_gate_count, wavelength_to_mev,
                      wavelength_width_to_mev)
from .spins import (GateReport, SpinSystem, build_hamiltonian,
                    effective_coupling, entangling_power, gate_fidelity,
                    induced_qubit_operator, propagator, sfg_gate)
from .configure import (AdjacencyHypothesis, ControlHypothesis, EprModel,
                        ScanMap, calibrate_gate_time, infer_adjacency,
                        simulate_scan)
from .scenario import (CurvePreset, Placement, RandomPlacementSpec, Scenario,
                       get_preset, list_presets, load_scenario, save_scenario,
                       scenario_from_dict)
from .feasibility import (FeasibilityReport, PatchStatistics,
                          patch_statistics, realize_placements,
                          resolve_cluster, run_feasibility)

__version__ = "0.1.0"
