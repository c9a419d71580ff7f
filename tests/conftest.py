import random
from dataclasses import replace

from pflab import GameSpec, HypothesisClass, SetSystem


def two_constant_game(horizon=3):
    """One instance, two labels, singleton sets, and the two constant rules."""
    return GameSpec(
        n_instances=1,
        n_labels=2,
        set_system=SetSystem.explicit(2, [0b01, 0b10]),
        hypotheses=HypothesisClass(1, 2, "explicit", ((0,), (1,))),
        horizon=horizon,
    )


def bounded_and_listed(seed, min_size=1):
    """A small spec on ``all_nonempty_up_to: K`` and the same spec with its sets listed.

    ``K`` is at least ``min(min_size, n_labels)``.
    """
    rng = random.Random(seed)
    n_x, n_y = rng.randint(1, 3), rng.randint(2, 4)
    horizon = rng.randint(1, 3)
    rows = sorted({tuple(rng.randrange(n_y) for _ in range(n_x))
                   for _ in range(rng.randint(1, 5))})
    bounded = GameSpec(
        n_instances=n_x,
        n_labels=n_y,
        set_system=SetSystem.all_nonempty_up_to(n_y, rng.randint(min(min_size, n_y), n_y)),
        hypotheses=HypothesisClass.explicit(n_x, n_y, rows),
        horizon=horizon,
    )
    listed = SetSystem.explicit(n_y, list(bounded.set_system.members()))
    return bounded, replace(bounded, set_system=listed)

