(** Negation normal form, prenex form and disjunctive normal form (paper
    Section 2).  Prenexing assumes non-empty ranges (Lemma 1); adapt
    empty ranges first via {!Standard_form.adapt_query}. *)

open Calculus

val nnf : formula -> formula
(** Push NOT to the atoms (absorbed into the comparison operator) and
    through quantifiers (De Morgan duals); folds ground atoms. *)

type quant = Q_some | Q_all

val quant_to_string : quant -> string

type prefix_entry = { q : quant; v : var; range : range }

val prenex : formula -> prefix_entry list * formula
(** Prenex a NNF formula with pairwise-distinct bound variables.
    Quantifiers keep their textual left-to-right order.
    @raise Invalid_argument if the formula is not in NNF. *)

type conjunction = atom list
(** A conjunction of join terms; [[]] is TRUE. *)

type dnf = conjunction list
(** A disjunction of conjunctions; [[]] is FALSE. *)

val dnf_of_matrix : formula -> dnf
(** DNF of a quantifier-free NNF matrix, with duplicate-atom removal,
    contradictory-conjunction elimination, and subsumption pruning.
    @raise Invalid_argument on quantifiers or NOT. *)

val conj_mem : atom -> conjunction -> bool
val conj_add : atom -> conjunction -> conjunction
val conj_equal : conjunction -> conjunction -> bool
val contradictory : conjunction -> bool
val conj_vars : conjunction -> Var_set.t
val dnf_vars : dnf -> Var_set.t

val formula_of_conj : conjunction -> formula
val formula_of_dnf : dnf -> formula

val shape : query -> query * query * Relalg.Value.t Var_map.t
(** [shape q] is [(lifted, shape, literals)].  [lifted] is [q] with
    every constant compared against an attribute replaced by a reserved
    placeholder ([%c0], [%c1], ... in traversal order, unlexable);
    [literals] binds the placeholders to those constants, so
    [subst_query literals lifted = q].  [shape] is [lifted] with every
    variable renamed to a reserved positional name ([%f0]/[%b0]/[%r0]):
    queries differing only in variable spelling and in those literals
    have one shape; digest it ({!Calculus.digest_query}) to key a plan
    cache.  Constant-vs-constant atoms stay, for {!nnf} to fold. *)

val pp_conjunction : conjunction Fmt.t
val pp_dnf : dnf Fmt.t
