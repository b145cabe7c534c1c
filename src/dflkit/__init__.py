"""Decision-focused learning toolkit.

Trains linear cost predictors for combinatorial problems with surrogate
gradients (SPO+ / perturbed Fenchel-Young) under four target policies:
empirical regret and three robust variants (budget-robust decisions, best-k
decisions, k-nearest-neighbour cost estimates).  Everything is exact and
deterministic at desk scale: combinatorial oracles are exact dynamic
programs, randomness flows through seeded named streams, and oracle calls
are audited.
"""

from .core import Dataset, DatasetMeta, DimensionError, RngStream
from .oracles import (DenseTSP, GridShortestPath, OracleAudit, SelectOne,
                      UncertaintyParams, instance_from_descriptor, is_feasible,
                      robust_solve, solve, top_k_solve, worst_case_cost)
from .targets import (KNN, Empirical, RobustOpt, TargetSet, TopK, build_targets,
                      knn_neighbors, policy_from_dict)
from .learning import (AdamState, LinearPredictor, TrainConfig, TrainedModel,
                       TrainingError, adam_step, decision_regret, loss_value,
                       mse_gradient, normalized_regret_pct, train)
from .datagen import (GenModel, GenParams, generate_samples, generate_splits,
                      load_dataset, make_gen_model, save_dataset)
from .bench import (BiasDemoConfig, RegretReport, SweepConfig, TTestResult,
                    bias_demo, eval_expected_regret, eval_regret, paired_t_test,
                    run_sweep)

__version__ = "0.1.0"
