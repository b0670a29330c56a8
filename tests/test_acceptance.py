"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure).  Run the whole gate with ``pytest tests/test_acceptance.py -v``.
"""

import math
import subprocess
import sys
from math import comb

import numpy as np

from gmeanrep.means import (
    Sequence,
    arithmetic_mean,
    gmean_excess_shifted,
    principal_gmean,
)
from gmeanrep.representation import density_moment, remainder
from gmeanrep.verify import (
    random_sequence,
    representation_z_grid,
    stable_large_z_deficit,
)

from conftest import ACCEPTANCE_SEED, seeded_suite

GAP_12 = 0.08578643762690495  # 3/2 - sqrt(2)


def report(number: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {number}: {label}{suffix}")
    return ok


def test_criterion_1_representation_equivalence(corpus_200):
    assert all(len(representation_z_grid(a)) == 40 for a in corpus_200)
    res = seeded_suite("representation-equivalence", ACCEPTANCE_SEED, 200)
    assert report(
        1,
        "representation matches direct evaluation to 1e-8 on 200x40 points",
        res.passed and res.wall_time <= 60.0,
        f"max err {res.max_error:.2e}, {res.wall_time:.1f}s",
    ), res.failures[:3]


def test_criterion_2_am_gm_inequality(corpus_200):
    res = seeded_suite("am-gm-gap", ACCEPTANCE_SEED, 200)
    n_constant = sum(a.max == a.min for a in corpus_200)
    n_spread = sum(a.max / a.min >= 1.1 for a in corpus_200)
    assert report(
        2,
        "gap nonnegative, zero for constants, strictly positive for spread entries",
        res.passed and n_constant > 0 and n_spread > 0,
        f"{n_constant} constant / {n_spread} spread instances, "
        f"max |gap - (A - G)| {res.max_error:.1e}",
    ), res.failures[:3]


def test_criterion_3_boundary_limit():
    res = seeded_suite("boundary-limit", [ACCEPTANCE_SEED, 3], 50)
    assert report(
        3,
        "boundary limit within 1e-3 at eps=1e-6 and improving at eps=1e-8",
        res.passed,
        f"worst err {res.max_error!r}",
    ), res.failures[:3]


def test_criterion_4_mass_identity():
    rng = np.random.default_rng([ACCEPTANCE_SEED, 4])
    worst_rel = worst_var = 0.0
    for _ in range(100):
        a = random_sequence(rng)
        m0 = density_moment(a, 0)
        # oracle 1: scaled large-shift deficit of the direct excess at R=1e5
        deficit = stable_large_z_deficit(a, 1e5)
        err = abs(deficit - m0)
        assert err <= max(0.01 * m0, 1e-9), (a.values, deficit, m0)
        if m0 > 0:
            worst_rel = max(worst_rel, err / m0)
        # oracle 2: half the population variance
        am = arithmetic_mean(a)
        var_half = (math.fsum(v * v for v in a.values) / a.n - am * am) / 2.0
        assert abs(m0 - var_half) <= 1e-8, (a.values, m0, var_half)
        worst_var = max(worst_var, abs(m0 - var_half))
    assert report(
        4,
        "scaled large-shift deficit matches density mass (1%) and half-variance (1e-8)",
        True,
        f"worst rel {worst_rel:.1e}, worst var gap {worst_var:.1e}",
    )


def test_criterion_5_contour_reconstruction():
    res = seeded_suite("contour-reconstruction", [ACCEPTANCE_SEED, 5], 20)
    assert report(
        5,
        "contour total within 1e-3; halving eps and doubling r reduces max error",
        res.passed,
        f"max err at defaults {res.max_error!r}",
    ), res.failures[:3]


def test_criterion_6_two_entry_closed_forms():
    rem = remainder(Sequence((1, 2)), 0.0).value.real
    mass = density_moment(Sequence((1, 2)), 0)
    ok_rem = abs(rem - GAP_12) <= 1e-9
    ok_mass = abs(mass - 0.125) <= 1e-10
    assert report(
        6,
        "remainder((1,2),0) = 3/2-sqrt(2) to 1e-9; mass((1,2)) = 1/8 to 1e-10",
        ok_rem and ok_mass,
        f"rem gap {abs(rem - GAP_12):.1e}, mass gap {abs(mass - 0.125):.1e}",
    )
    assert ok_rem and ok_mass


def test_criterion_7_structural_suites():
    rng = np.random.default_rng([ACCEPTANCE_SEED, 7])
    # Herglotz positivity on 100 upper-half-plane points
    for _ in range(100):
        a = random_sequence(rng)
        z = complex(rng.uniform(-20, 20), 10.0 ** rng.uniform(-3, 1.5))
        assert gmean_excess_shifted(a, z).imag >= -1e-10, (a.values, z)
    # complete monotonicity: forward differences to order 4 at step 0.1
    for _ in range(20):
        a = random_sequence(rng)
        for delta in np.geomspace(0.1, a.min + 1e3, 8):
            vals = [remainder(a, -a.min + float(delta) + 0.1 * k).value.real for k in range(5)]
            for m in range(5):
                diff = math.fsum((-1.0) ** (m - j) * comb(m, j) * vals[j] for j in range(m + 1))
                assert (-1.0) ** m * diff >= -1e-8, (a.values, delta, m)
    # Schwarz reflection at 1e-14 relative
    for _ in range(100):
        a = random_sequence(rng)
        z = complex(rng.uniform(-5, 5), rng.uniform(0.05, 5))
        h = gmean_excess_shifted(a, z)
        assert abs(gmean_excess_shifted(a, z.conjugate()) - h.conjugate()) <= 1e-14 * max(1.0, abs(h))
    # homogeneity at 1e-12 relative
    for _ in range(100):
        a = random_sequence(rng)
        lam = 10.0 ** rng.uniform(-2, 2)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 3))
        lhs = principal_gmean(Sequence([lam * v for v in a.values]), lam * z)
        rhs = lam * principal_gmean(a, z)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs), (a.values, z, lam)
    assert report(7, "Herglotz, complete monotonicity, Schwarz, homogeneity suites", True)


def test_criterion_8_determinism(tmp_path):
    cmd = [sys.executable, "-m", "gmeanrep.cli", "verify", "--seed", "42", "--cases", "200"]
    outputs = []
    for run_idx in (1, 2):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append(proc.stdout)
        (tmp_path / f"verify-{run_idx}.json").write_text(proc.stdout)
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    assert report(
        8,
        "two runs of verify --seed 42 --cases 200 are byte-identical",
        ok,
        f"{len(outputs[0])} bytes",
    )
