"""wittcert: exact characteristic-p computer algebra with replayable
vanishing certificates for top differential forms.

Layers, bottom up: `modarith` (Z/p^N linear algebra), `polyring`
(Groebner machinery over F_p), `wittvec` (truncated Witt vectors),
`derham` (presented rings and their top forms), `dieudonne` (finite
Dieudonne-complex models), `vanish` (descent certificates), `cli`.
"""

from .modarith import ModularMatrix, Modulus, SubmoduleBasis, smith_normal_form, solve_linear
from .polyring import Ideal, Polynomial, PolyRing, TermOrder, buchberger, eliminate, krull_dim, normal_form, parse_polynomial, pth_root_ideal
from .derham import PresentedRing, TopFormPresentation, top_form_is_zero_in_omega, top_form_presentation
from .wittvec import WittVector, build_witt_table, frobenius, ghost, teichmuller, verschiebung, witt_add, witt_mul, witt_neg
from .dieudonne import DieudonneModel, a1_model, check_axioms, f_cancellation_check, hn_mod_pr, saturation_witness, wr_quotient
from .vanish import VanishingCertificate, certify_top_vanishing, certify_tuple_vanishing, descend_to_unit, differential_p_closure, kernel_of_tuple, vanishing_degree_bound, verify_certificate

__version__ = "0.1.0"
