"""Performance lab for blockchain-mediated radio access networks.

Analytic Markov-chain latency, closed-form tandem queueing, alternate
history attack probabilities, and an event-driven simulator, plus a sweep
runner with presets.

The package exports the user API only: the two config types and their
checks, one entry point per engine, and the sweep runner.  Solver
internals, helpers and result types are imported from their modules
(``branlab.markov``, ``branlab.queueing``, ``branlab.attack``,
``branlab.des``, ``branlab.scenarios``).
"""

from .config import (
    ChainConfig,
    ConfigValidationError,
    HierarchicalConfig,
    intensity_of,
    validate,
    with_intensity,
)
from .markov import latency, stationary_solution
from .queueing import closed_form_latency
from .attack import AttackParams, attack_success, attack_success_montecarlo
from .des import (
    SimulationUnstableError,
    simulate_chain,
    simulate_hierarchical,
    write_trace_csv,
)
from .scenarios import (
    MalformedSpecError,
    list_presets,
    parse_scenario,
    preset_specs,
    run_preset,
    run_scenario,
)

__version__ = "0.1.0"
