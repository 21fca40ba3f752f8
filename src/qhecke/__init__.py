"""qhecke: exact q-series toolkit and identity verification harness.

Computes Hurwitz class numbers from reduced binary quadratic forms,
builds their generating functions alongside the classical mock theta
functions A, V1, sigma and phi-, evaluates theta functions, Appell-Lerch
sums and Hecke-Rogers indefinite theta series in exact arithmetic, and
machine-verifies a registry of identities relating all of them to a
configurable truncation order.
"""

from .rings import ZPoly
from .series import (
    INF,
    Monomial,
    QSeries,
    eta_quotient,
    etaq,
    geom_ratio,
    lattice_range,
    monomial,
    pochhammer,
)
from .jets import Jet1, jet_of_termsum
from .theta import appell_m, f_abc, g_abc, jtheta, theta_1_4
from .classnum import genfun_F, genfun_H, hurwitz, hurwitz12, kronecker_F
from .mock import (F4_series, F8_series, appell_rhs, eulerian, hecke_rogers,
                   humbert_series, kronecker_minus4)
from .combinat import P_series, Q_series, count_P, count_Q, list_P, list_Q
from .oeis import oeis_compare
from .verify import verify

__all__ = [
    "ZPoly",
    "INF", "Monomial", "QSeries", "eta_quotient", "etaq", "geom_ratio",
    "lattice_range", "monomial", "pochhammer",
    "Jet1", "jet_of_termsum",
    "appell_m", "f_abc", "g_abc", "jtheta", "theta_1_4",
    "genfun_F", "genfun_H", "hurwitz", "hurwitz12", "kronecker_F",
    "F4_series", "F8_series", "appell_rhs", "eulerian", "hecke_rogers",
    "humbert_series", "kronecker_minus4",
    "P_series", "Q_series", "count_P", "count_Q", "list_P", "list_Q",
    "oeis_compare", "verify",
]

__version__ = "0.1.0"
