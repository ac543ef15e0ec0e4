import numpy as np
import pytest
from hypothesis import settings

from dlf.basis import generate_nodes, make_psi_family, validate_basis

settings.register_profile("dlf", deadline=None, max_examples=60)
settings.load_profile("dlf")

# kind, params, domain; every kind is exercised, heterogeneous ones last
FAMILY_CASES = [
    ("identity", {}, (-1.0, 1.0)),
    ("fractional", {"delta": 2.0}, (0.5, 2.5)),
    ("fractional", {"delta": 1.5}, (0.5, 2.5)),
    ("generalized", {"expr": "x^3 + x"}, (-1.0, 1.0)),
    ("rational", {"L": 1.0}, (0.0, 1.0)),
    ("rational", {"L": 2.0, "variant": "(x-L)/(x+L)"}, (0.0, 3.0)),
    ("exponential", {"rates": 0.5}, (0.0, 1.0)),
    ("fourier-sin", {"freqs": 1.2}, (0.1, 1.2)),
    ("fourier-cos", {"freqs": 1.0}, (0.2, 2.8)),
    ("mixed", {"split": 4, "rates": 0.3, "freqs": 1.1}, (0.1, 0.9)),
]
HOMOGENEOUS_CASES = [s for s in FAMILY_CASES if s[0] != "mixed"]
# first case of every kind, for tests that run once per kind
KIND_CASES = {case[0]: case for case in reversed(FAMILY_CASES)}


def build_basis(kind="identity", params=None, n=8, a=-1.0, b=1.0, scheme="cgl"):
    """One-stop basis factory used across the suite."""
    nodes = generate_nodes(scheme, n, a, b)
    fam = make_psi_family(kind, params or {}, size=n + 1)
    return validate_basis(fam, nodes)


def eager_seconds(basis):
    """``(w'', mu, psi'')`` at the nodes, formed eagerly from fresh map tables in one
    pass: the reference for the quantities a basis forms on first read."""
    psi, xs, size = basis.psi, basis.nodes.nodes, basis.size
    psi_tab, dpsi_tab = psi.values_at(xs), psi.values_at(xs, order=1)
    f_tab = psi_tab - np.diag(psi_tab).copy()[:, None]
    dpsi_own = np.diag(dpsi_tab).copy()
    d2psi_own = np.diag(psi.values_at(xs, order=2)).copy()
    off = ~np.eye(size, dtype=bool)
    f_off = f_tab.T[off].reshape(size, size - 1)
    with np.errstate(all="ignore"):
        denom_prod = np.prod(f_off, axis=1)
        wprime = dpsi_own * denom_prod
        s = np.sum(dpsi_tab.T[off].reshape(size, size - 1) / f_off, axis=1)
        wsecond = (d2psi_own + 2 * dpsi_own * s) * denom_prod
        mu = dpsi_own / wprime
    return wsecond, mu, d2psi_own


def underflow_basis():
    # 26 nodes 1.2e-10 apart: at x = 1e-120 no term is below 1e-150, yet the
    # product of all 26 underflows to 0
    return build_basis("identity", n=25, a=0.0, b=3e-9, scheme="equispaced")


def reciprocal_overflow_basis():
    # 41 equispaced nodes on [0, 1e-7]: the node-gap products reach 1e-300, so
    # w_j / term_j overflows at some points where P is normal and every L_j finite
    return build_basis("identity", n=40, a=0.0, b=1e-7, scheme="equispaced")


def overflow_basis():
    # at x = 1e299 the product of the two terms overflows, while L_0 and L_1 do not
    return build_basis("identity", n=1, a=1.0, b=1e300)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            if "test_acceptance" in rep.nodeid and rep.when == "call":
                rows.append((rep.nodeid.split("::")[-1], status.upper()))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, status in sorted(rows):
            terminalreporter.write_line(f"{status:7s} {name}")
