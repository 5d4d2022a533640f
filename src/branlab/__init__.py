"""Performance lab for blockchain-mediated radio access networks.

Analytic Markov-chain latency, closed-form tandem queueing, alternate
history attack probabilities, and an event-driven simulator, plus a sweep
runner with presets.
"""

from .config import (
    ChainConfig,
    ConfigValidationError,
    HierarchicalConfig,
    arrival_rate_for_intensity,
    intensity_of,
    validate,
    with_intensity,
)
from .markov import (
    RateMatrix,
    StateSpace,
    SteadyStateDistribution,
    auto_truncate,
    build_generator,
    enumerate_states,
    latency,
    mean_queue_length,
    solve_steady_state,
    stationary_solution,
)
from .queueing import LatencyBreakdown, closed_form_latency, erlang_c
from .attack import (
    AttackParams,
    AttackResult,
    attack_success,
    attack_success_montecarlo,
    catch_up_probability,
    negbin_pmf,
)
from .des import (
    RequestRecord,
    SimResult,
    SimulationUnstableError,
    simulate_chain,
    simulate_hierarchical,
    write_trace_csv,
)
from .scenarios import (
    MalformedSpecError,
    ScenarioSpec,
    list_presets,
    parse_scenario,
    preset_specs,
    run_preset,
    run_scenario,
)

__version__ = "0.1.0"
