"""Minimum-energy bridges and flow matching for theta-averaged linear ensembles.

The state of an ensemble of linear systems, averaged over its parameter,
evolves by a convolution against the kernel Phi(t - tau) rather than by a
semigroup: steering it is a Volterra problem, not a Markov one.  This package
precomputes the kernel tables (``kernel``), solves deterministic and noisy
endpoint steering (``bridge``), conditions unknown endpoints on the running
state (``distributions``), couples sample clouds (``coupling``), fits control
laws to teacher data (``learn``), and rolls out and evaluates the closed loop
(``sim``).  The ``avgflow`` command line wires the pieces together.

Importing avgflow loads numpy and ``scipy.linalg`` only; the coupling, the
two-sample metrics and the LSTM load their scipy subpackages
(``scipy.optimize``, ``scipy.spatial``, ``scipy.special``) on first call.
"""

from .bridge import (
    EndpointPair,
    PathEnsemble,
    bridge_ensemble,
    export_trajectory_csv,
    sample_increments,
    volterra_noise_terms,
)
from .coupling import (
    CouplingPlan,
    export_plan_csv,
    ot_assignment,
    product_plan,
)
from .distributions import (
    GaussianMixture,
    PosteriorContext,
    SamplePairSet,
    point_mass,
    posterior_mean,
    product_pairs,
    ring_mixture,
    sample,
    single_gaussian,
)
from .errors import (
    ConfigError,
    DegeneratePosteriorError,
    NotAveragedControllableError,
    TrainingDivergenceError,
)
from .kernel import (
    KernelTable,
    ThetaEnsemble,
    TimeGrid,
    build_kernel_table,
    build_theta_ensemble,
    causal_convolve,
    export_kernel_csv,
    load_theta_table,
)
from .learn import (
    Adam,
    FeedforwardModel,
    GainModel,
    RecurrentModel,
    TrainConfig,
    TrainReport,
    flatten_endpoint_dataset,
    load_model,
    lstm_loss_and_grads,
    mlp_loss_and_grads,
    save_model,
    sequence_dataset,
    train_feedforward,
    train_gain,
    train_recurrent,
)
from .sim import (
    DeterministicExactController,
    FeedforwardController,
    GainController,
    MetricsReport,
    PosteriorExactController,
    RecurrentController,
    VolterraExactController,
    compare_laws,
    energy_distance,
    energy_distance_null,
    export_metrics,
    rollout_deterministic,
    rollout_stochastic,
    sliced_w2,
    write_manifest,
)

__version__ = "0.1.0"
