"""Finite-scale workbench for Ramsey phenomena of monoid actions.

The package models finite chains, finite monoids and their actions,
comonadic representations of actions (with rooted forests as the
motivating unary case), a decision engine for Ramsey arrows, order
expansions, lexicographic lifts with pre-adjunction witness transport,
and a truncated big-Ramsey experiment certifying the 2^(|A|-1) color
bound at finite scale.
"""

from .chains import (Chain, ChainEmbedding, enumerate_chain_embeddings,
                     lex_product, omega, ordinal_sum)
from .monoid import (FiniteMonoid, chain_semilattice, cyclic_group,
                     left_zero_monoid, trivial_monoid, validate_monoid, z2)
from .mset import (MSet, MSetMorphism, UnaryAlgebra, cofree_mset,
                   enumerate_embeddings, evaluate_word, generated_sub_mset,
                   validate_morphism, validate_mset, with_order)
from .comonad import (Coalgebra, CoalgebraHom, DistinctListFunctor,
                      LawReport, ListFunctor, MonoidActionFunctor,
                      check_comonad_laws, classify_coalgebra,
                      coalgebra_to_mset, cofree_coalgebra, mset_to_coalgebra,
                      sharp_lift, validate_coalgebra_hom)
from .forests import (RootedForest, decode_coalgebra, encode_forest,
                      enumerate_forests, fig1_forest, make_forest)
from .ramsey import (ArrowVerdict, ChainContext, Coloring, ForestContext,
                     MSetContext, find_witness, holds_arrow,
                     probe_small_degree)
from .expansion import (degree_sum_bound, fibers, forget_order,
                        restrict_along)
from .transport import (LexLift, WeakCoalgebra, check_PA, hat_E, hat_E_map,
                        hat_delta, mset_as_weak_coalgebra, phi,
                        transport_witness)
from .bigramsey import (ReductionRecord, ReductionResult, big_ramsey_reduce,
                        lift_hom_size, pi_star, random_coloring,
                        subchains_containing_min, unordered_degree_bound)

__version__ = "0.1.0"
