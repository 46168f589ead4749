"""Independent learning dynamics in tabular Markov potential games."""

from .core import (AgentTables, EvalReport, JointPolicy, Logits,
                   MultiAgentMDP, eval_report_violations, l1_accuracy,
                   random_logits, read_mdp, read_policy, softmax_policy,
                   uniform_logits, validate_mdp, write_mdp, write_policy)
from .exact import (MismatchBound, enumerated_mismatch, evaluate,
                    mismatch_bound, potential_value, q_and_advantage,
                    visitation)
from .sampling import SampleConfig, estimate_eval, sample_episode
from .dynamics import (ALGORITHMS, AlgoConfig, RunTrace, inpg_step, ipg_step,
                       max_step_size, mwu_step, run)
from .environments import (CostDescriptor, DagSpec, DistancingParams,
                           Environment, build_cooperative, build_distancing,
                           build_scg, layered_dag, parallel_dag,
                           parse_dag_spec, random_product_policy)
from .verify import (NashReport, SmoothnessReport, best_response,
                     check_potential, check_smoothness, finite_diff_grad,
                     fixed_point_residual, nash_gap, potential_gradients,
                     value_gradients, verify_environment)

__version__ = "0.1.0"
