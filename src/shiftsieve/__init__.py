"""Shifted convolution sums of Hecke eigenvalues via the large sieve,
with the explicit automorphic quantities behind the mass-equidistribution
bound: exact level-1 eigenforms, smooth/rough sieving, residue-class
systems with exact-rational large-sieve bounds, K-Bessel of imaginary
order, the spectral weight W(n, ell; Y), symmetric-square values and the
prime-product rates M(x) and M_k(f)."""

from .arith import SievingParameters, make_params, prime_table, smooth_rough, tau, tau_m
from .largesieve import OmegaSystem, big_h, build_omega, ls_bound, sift_bruteforce
from .qexpansion import EigenForm, QExpansion, delta_qexp, eigenform, eisenstein_qexp, hecke_verify
from .shifted import (
    eigenform_handle,
    m_of_x,
    partition_sums,
    sieve_side_bound,
    tau_handle,
    theorem2_report,
    unit_handle,
)
from .equidist import corollary3_report, ems_prime_check, ems_sum_check, l1_sym2, mk
from .specfun import (
    BumpFunction,
    MellinTransform,
    a_ell_y,
    bessel_k_it,
    bessel_k_scaled,
    gamma_ratio_check,
    w_main_term,
    w_weight,
)

__version__ = "0.1.0"
