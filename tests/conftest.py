import random

import pytest

from freequandle import conj_quandle as cq
from freequandle import subquandle as sq
from freequandle.errors import ClosureTooLarge
from freequandle.free_group import Alphabet

NAMES = ("x", "y", "z")

CORPUS_SEED = 20240901
CORPUS_SIZE = 100
CORPUS_CAP = 250      # element budget for screening a closure as desk-scale
SCREEN_BOUND = 10     # screened at the largest bound any test will use


# the baseline rows of the ROADMAP: (generators on x y z, bound); the first
# three are the README example {x^(y), y}
BASELINE_ROWS = (
    (("x^(y)", "y"), 4),
    (("x^(y)", "y"), 6),
    (("x^(y)", "y"), 8),
    (("x^(y z)", "y^(z)", "z^(x)"), 6),
    (("x^(y z)", "y^(z)", "z^(x)"), 8),
    (("x^(y)", "y^(z x)", "z"), 8),
    (("x^(y)", "y^(z x)", "z"), 10),
    (("x^(y)", "y^(z x)", "z"), 12),
)


def make_corpus(master_seed=CORPUS_SEED, count=CORPUS_SIZE):
    """Seeded random generating sets, screened to desk scale.

    Instances whose bounded closure exceeds the element budget at the
    screening bound are skipped deterministically, so every closure any
    test builds from an accepted instance stays small.
    """
    out = []
    k = 0
    while len(out) < count:
        rng = random.Random(master_seed * 100003 + k)
        k += 1
        alphabet = Alphabet(NAMES[: rng.randint(1, 3)])
        gens = [cq.random_element(alphabet, 4, rng)
                for _ in range(rng.randint(1, 5))]
        try:
            sq.closure(gens, SCREEN_BOUND, max_elements=CORPUS_CAP)
        except ClosureTooLarge:
            continue
        out.append((k - 1, alphabet, list(dict.fromkeys(gens))))
    return out


@pytest.fixture(scope="session")
def corpus():
    return make_corpus()


@pytest.fixture(scope="session")
def corpus_closures(corpus):
    return [(gens, sq.closure(gens, 8)) for _, _, gens in corpus]


@pytest.fixture(scope="session")
def baseline_closures():
    xyz = Alphabet(NAMES)
    return [sq.closure([cq.parse_element(xyz, g) for g in gens], bound)
            for gens, bound in BASELINE_ROWS]


@pytest.fixture(scope="session")
def xy():
    return Alphabet(("x", "y"))


@pytest.fixture(scope="session")
def xyz():
    return Alphabet(("x", "y", "z"))
