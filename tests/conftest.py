import numpy as np
import pytest

from gmeanrep.verify import SuiteResult, random_sequence, run_suite

ACCEPTANCE_SEED = 42


@pytest.fixture(scope="session")
def corpus_200():
    """The seeded 200-instance corpus shared by the acceptance criteria."""
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    return [random_sequence(rng) for _ in range(200)]


def seeded_suite(suite: str, seed, cases: int) -> SuiteResult:
    """The ``verify`` suite ``suite`` run over ``cases`` draws of ``default_rng(seed)``."""
    return run_suite(suite, np.random.default_rng(seed), cases)
