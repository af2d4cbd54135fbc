"""The paper's analytic models.

* :mod:`repro.analytics.memory_model` — Sec. 3: parameter counts and the
  memory footprints of model states, activation checkpoints, and working
  memory (Eqs. 1-5, the Fig. 2a table);
* :mod:`repro.analytics.bandwidth_model` — Sec. 4: arithmetic intensity and
  the bandwidth-efficiency relation (Eqs. 6-11, Fig. 3, Table 3);
* :mod:`repro.analytics.model_zoo` — the experiment configurations of
  Table 1 and appendix Tables 4-8.
"""

from repro.analytics.memory_model import (
    transformer_params,
    layers_for_params,
    model_states_bytes,
    activation_checkpoint_bytes,
    full_activation_bytes,
    mswm_bytes,
    awm_bytes,
    MemoryRequirements,
    memory_requirements,
)
from repro.analytics.bandwidth_model import (
    ait_param_grad,
    ait_optimizer_states,
    ait_activation_checkpoints,
    efficiency,
    required_bandwidth,
    compute_per_iter_flops,
    EfficiencyModel,
)
from repro.analytics.model_zoo import (
    ExperimentConfig,
    TABLE1_CONFIGS,
    FIG6A_CONFIGS,
    FIG6B_CONFIGS,
    FIG6C_CONFIG,
    FIG6D_CONFIG,
    FIG6E_CONFIGS,
    FIG2A_ROWS,
)

__all__ = [
    "transformer_params",
    "layers_for_params",
    "model_states_bytes",
    "activation_checkpoint_bytes",
    "full_activation_bytes",
    "mswm_bytes",
    "awm_bytes",
    "MemoryRequirements",
    "memory_requirements",
    "ait_param_grad",
    "ait_optimizer_states",
    "ait_activation_checkpoints",
    "efficiency",
    "required_bandwidth",
    "compute_per_iter_flops",
    "EfficiencyModel",
    "ExperimentConfig",
    "TABLE1_CONFIGS",
    "FIG6A_CONFIGS",
    "FIG6B_CONFIGS",
    "FIG6C_CONFIG",
    "FIG6D_CONFIG",
    "FIG6E_CONFIGS",
    "FIG2A_ROWS",
]
