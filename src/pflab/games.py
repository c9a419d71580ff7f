"""Named example games.

Each builder returns a fully specified game. They are small enough for the
exact engines yet exercise the behaviors the library is built around:
transversal shortcuts, randomized-vs-deterministic gaps, public-visibility
leakage, feedback-mode separations, and agnostic floors.
"""

from __future__ import annotations

from .adversaries import CollisionFamily, _prefix_parity_layout
from .errors import game_size
from .game import (
    Feedback,
    GameSpec,
    HypothesisClass,
    Realizability,
    Visibility,
)
from .setsystems import SetSystem, mask_of

HELLY_TRANSVERSAL = (1, 3, 5)


def helly_game(horizon: int = 1) -> GameSpec:
    """Six constants over one instance with three pairwise-overlapping sets.

    Every pair of the three feasible sets intersects but no single label hits
    all three, which is exactly the shape the transversal-intersection
    strategy exploits. The tuple HELLY_TRANSVERSAL hits all three sets.
    """
    system = SetSystem.explicit(6, [mask_of([0, 1, 3]), mask_of([2, 3, 5]), mask_of([1, 4, 5])])
    hyps = HypothesisClass.explicit(1, 6, [[lbl] for lbl in range(6)])
    return GameSpec(
        n_instances=1,
        n_labels=6,
        set_system=system,
        hypotheses=hyps,
        horizon=horizon,
    )


def agnostic_game(T: int) -> GameSpec:
    """Two constant hypotheses on a binary alphabet, one fresh instance a round.

    The feasible sets are both singletons and the full pair, and the game is
    declared existence-realizable: some constant must end up consistent with
    every committed set, yet no collection structure is promised. Against
    :class:`~pflab.adversaries.TwoConstantAgnosticAdversary`, the strategies
    that the ``two-constant-agnostic-floor`` check plays (cvsp, dpfla, the
    uniform coin and every deterministic label script) pay regret at least
    T/2, and the coin exactly T/2. That bounds those strategies only, not
    the game's minimax regret, which the package does not compute for this
    mode; a grid-randomized learner can pay less.
    """
    game_size(T, 1, "horizon must be at least 1")
    system = SetSystem.explicit(2, [0b01, 0b10, 0b11])
    hyps = HypothesisClass.explicit(T, 2, [[0] * T, [1] * T])
    return GameSpec(
        n_instances=T,
        n_labels=2,
        set_system=system,
        hypotheses=hyps,
        horizon=T,
        realizability=Realizability.EXISTENCE_REALIZABLE,
    )


def cube_game(T: int, M: int, visibility=Visibility.OBLIVIOUS) -> GameSpec:
    """All functions from T instances to M labels, co-singleton feasible sets.

    Every feasible set excludes exactly one label, so a randomized learner
    spreading mass widely is safe when the adversary cannot see realized
    draws, and exposed the moment it can. Use visibility="public" for the
    leaky variant.
    """
    game_size(M, 2, "need at least two labels for co-singleton sets")
    full = (1 << M) - 1
    system = SetSystem.explicit(M, [full ^ (1 << y) for y in range(M)])
    hyps = HypothesisClass.all_functions(T, M)
    return GameSpec(
        n_instances=T,
        n_labels=M,
        set_system=system,
        hypotheses=hyps,
        horizon=T,
        visibility=visibility,
    )


def collision_game(family: CollisionFamily | None = None, horizon: int = 8) -> GameSpec:
    """Affine residue tables with a bounded set system sized to the horizon.

    Pairs of distinct hypotheses agree on at most one pool instance, which
    lets the collision adversary charge every learner near one miss per
    round while a ground-truth collection of one hypothesis per round stays
    feasible. The bounded system admits all nonempty sets up to the
    horizon size.
    """
    fam = family or CollisionFamily()
    n_x = len(fam.pool)
    rows = [
        [fam.value(h, x) for x in range(n_x)] for h in range(fam.n_hypotheses())
    ]
    system = SetSystem.all_nonempty_up_to(fam.modulus, horizon)
    hyps = HypothesisClass.explicit(n_x, fam.modulus, rows)
    return GameSpec(
        n_instances=n_x,
        n_labels=fam.modulus,
        set_system=system,
        hypotheses=hyps,
        horizon=horizon,
    )


def pf_not_sv_game(set_valued: bool = False) -> GameSpec:
    """Sixty-four integer candidates plus two sentinel halves, six rounds.

    Hypotheses come in matched pairs: a constant at candidate c and a
    prefix-parity function over the same c that only ever outputs the two
    sentinel labels. Feasible sets are exactly the two-label sets joining a
    candidate with a sentinel. With plain label feedback the surviving
    candidate can be steered away from every prediction; with set-valued
    feedback the first revealed set gives the candidate away.
    """
    n_cand = 64
    T = 6
    n_labels = n_cand + 2
    rows, masks = _prefix_parity_layout(n_cand, T)
    system = SetSystem.explicit(n_labels, masks)
    hyps = HypothesisClass.explicit(T, n_labels, rows)
    return GameSpec(
        n_instances=T,
        n_labels=n_labels,
        set_system=system,
        hypotheses=hyps,
        horizon=T,
        feedback=Feedback.SET_VALUED if set_valued else Feedback.PARTIAL,
    )
