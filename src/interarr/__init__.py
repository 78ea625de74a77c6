"""Exact combinatorial invariants of reflection-type hyperplane arrangements.

Chambers, tope graphs, f/h/gamma-vectors, signed-partition lattices, and
Chow polynomials of the arrangements interpolating between type D and
type B, all in exact integer/rational arithmetic, cross-checked by
independent computation routes.
"""

from .arrangement import (Arrangement, Flat, InvalidParamsError,
                          NotEssentialError, chamber_count,
                          chambers, f_polynomial, f_vector,
                          intersection_lattice, load_arrangement, make_arrangement,
                          make_family,
                          matroid_rank, restrict)
from .chow import (ArithmeticityReport, NonDivisibleError, TooLargeError,
                   char_poly_bruteforce, characteristic_poly,
                   chow_dns, chow_recursive, chow_type_a, chow_type_b,
                   chow_via_chains, dns_lattice, moebius,
                   reduced_characteristic_poly, verify_chow_arithmetic,
                   verify_gamma_arithmetic)
from .labeling import (LabeledChain, count_chains_with_word, el_label,
                       enumerate_filtered_chains, label_set, min_atom_label,
                       r_label, verify_el, verify_r_labeling)
from .lattice import (GradedLattice, NotComparableError, contract_interval,
                      lattice_isomorphic)
from .permstats import (OddSumError, descents, gamma_b_closed, h_b_closed,
                        h_d_closed, horizontal_flip, increment_closed,
                        inversion_sequence, maxima, peaks)
from .poly import (GammaVector, IntPolynomial, NonPalindromicError, f_to_h,
                   gamma_to_h, h_to_f, h_to_gamma, is_palindromic)
from .signed_partitions import (EdgeClass, LatticeVariant, NotACoverError,
                                SignedPartition, ZeroBlockError, classify_edge,
                                covers, enumerate_lattice, representative,
                                variant_b, variant_d, variant_dn_set,
                                variant_dns)
from .topegraph import (BaseNotAChamberError, NotSimplicialError,
                        build_tope_graph, h_via_indegree, h_via_separation,
                        in_degrees)

__version__ = "0.1.0"
