"""qflab: desk-scale workbench for positive definite binary quadratic forms.

Exact representation counts and congruence sums, lattice Poisson checks,
Selberg-sieve short-interval prime bounds, prime-gap scans, and the
bandlimited Fourier functionals behind the gap constant.
"""

from .arith import (
    class_number_analytic,
    dirichlet_l1,
    divisor_tau,
    divisor_tau3,
    g_squarefree,
    is_fundamental,
    kronecker,
    residue_density,
)
from .forms import (
    FormClassSet,
    FormLattice,
    QuadraticForm,
    delta_f,
    enumerate_reduced_forms,
    is_reduced,
    lattice_basis,
    reduce_form,
    representation_count,
    unit_count,
)
from .fourier import (
    BandlimitedFn,
    FunctionalReport,
    GaussPolyFn,
    dn_estimate,
    eval_h,
    functional_report,
    gap_constant,
    gauss_poly_report,
    greedy_search,
    hat_h,
)
from .latticesums import (
    TestFunctionG,
    congruence_main_term,
    congruence_sum_exact,
    error_scaling_report,
    hankel_transform,
    hat_g_at_zero,
    poisson_identity_check,
    translation_exception_count,
)
from .sieve import (
    bt_theoretical_bound,
    cor_brun_bound,
    count_represented_primes,
    prime_gap_scan,
    represented_primes,
    selberg_j,
    sieve_upper_bound,
    sieved_sum_exact,
)

__version__ = "0.1.0"
