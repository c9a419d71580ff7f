"""Exact partial-feedback online learning games at desk scale.

Everything is computed with exact rational arithmetic over finite label
alphabets, instance spaces, hypothesis classes, and reveal-set systems, so
minimax values, combinatorial dimensions, and played transcripts can be
compared for exact equality.
"""

from .adversaries import (
    Adversary,
    CollisionAdversary,
    CollisionFamily,
    CubeAdversary,
    EchoAdversary,
    OptimalAdversary,
    PrefixParityAdversary,
    SeededRandomAdversary,
    TwoConstantAgnosticAdversary,
    make_adversary,
)
from .dimensions import (
    ShatteringTree,
    minimax_det_regret,
    ml_sl_bl_dim,
    pfl_dim,
    ppfl_dim,
    shattering_tree,
    verify_shattering_tree,
)
from .engine import CollectionEngine
from .errors import (
    AdmissibleEmpty,
    BudgetExceeded,
    EmptyConsistentSet,
    GridTooLarge,
    LabelPoolExhausted,
    PflabError,
    PoolExhausted,
    ProtocolViolation,
    RealizabilityViolation,
    SpecError,
    SpecFileError,
    TreeSpecMismatch,
)
from .families import (
    binary_full_system_family,
    enumerate_specs,
    mistake_bound_family,
    small_binary_family,
    ternary_slice,
)
from .game import (
    Collection,
    Feedback,
    GameSpec,
    GameView,
    HypothesisClass,
    Learner,
    PublicBranch,
    PublicGameResult,
    Realizability,
    Transcript,
    Visibility,
    build_admissible_collections,
    collection_of,
    comparator_loss,
    find_realizability_witness,
    play_game,
    replay_predictions,
)
from .games import (
    HELLY_TRANSVERSAL,
    agnostic_game,
    collision_game,
    cube_game,
    helly_game,
    pf_not_sv_game,
)
from .learners import (
    ConstantLearner,
    FirstSetReadingLearner,
    FixedScaleMeasureLearner,
    MultiScaleMeasureLearner,
    PotentialMinimizingLearner,
    ScriptedLearner,
    TransversalIntersectionLearner,
    UniformPrefixLearner,
    VersionSpacePruningLearner,
    make_learner,
)
from .measure_dims import minimax_rand_regret, msp, pms_dim, ppms_dim
from .measures import Measure, grid_size, measure_grid
from .replicate import CheckResult, format_table, run_checks
from .setsystems import SetSystem, helly_number, inseparability_report, labels_of, mask_of
from .specfile import SpecDocument, load_spec_file, parse_spec_data

__all__ = [name for name in dir() if not name.startswith("_")]
