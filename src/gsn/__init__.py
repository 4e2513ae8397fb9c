"""Greedy shallow ReLU networks from sphere-sampled dictionaries.

Pipeline: sample candidate directions on the sphere, build the activation
dictionary on the training data, optionally prune it by thresholding the
collapsed ridgelet transform, select nodes with the orthogonal greedy
algorithm, solve the convex outer-weight problem, and optionally fine-tune
with Adam. The bench module reproduces the reference experiments at desk
scale, and the CLI exposes every stage.
"""

from .core import (
    Dataset,
    Dictionary,
    ShallowNetwork,
    batch_eval,
    check_directions,
    relu,
    rescale_node,
)
from .sampling import (
    build_dictionary,
    generate_dataset,
    golden_spiral,
    sample_circle,
    sample_gaussian_sphere,
)
from .ridgelet import (
    CollapsedField,
    RadialQuadrature,
    prune_dictionary,
    tau,
)
from .greedy import GreedyPath, GreedyState, oga_run, oga_step, select_model
from .solve import DesignMatrix, assemble_design, fit_outer_weights
from .train import TrainConfig, lr_at, multi_restart
from .bench import ExperimentConfig, compute_errors, default_config, node_sweep, run_experiment, target_registry

__version__ = "0.1.0"
