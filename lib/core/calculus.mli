(** The many-sorted first-order predicate calculus of PASCAL/R selection
    expressions (paper Section 2): join terms over six comparison
    operators, connectives, range-coupled quantifiers, and — for
    strategy 3 — extended range expressions. *)

open Relalg

type var = string

module Var_set : Set.S with type elt = var
module Var_map : Map.S with type key = var

type range = {
  range_rel : string;
  restriction : (var * formula) option;
      (** [[EACH v IN rel: S(v)]]; free variables of [S] ⊆ [{v}] *)
}

and operand =
  | O_attr of var * string
  | O_const of Value.t
  | O_param of string
      (** [$name] placeholder, bound to a constant at execution time
          ({!subst_query}); one prepared plan serves a family of
          constants — the paper's [rel[keyval]] selected-variable
          usage. *)

and atom = { lhs : operand; op : Value.comparison; rhs : operand }

and formula =
  | F_true
  | F_false
  | F_atom of atom
  | F_not of formula
  | F_and of formula * formula
  | F_or of formula * formula
  | F_some of var * range * formula
  | F_all of var * range * formula

type query = {
  free : (var * range) list;  (** EACH v IN range, in declared order *)
  select : (var * string) list;  (** the component selection *)
  body : formula;
}

(** {1 Constructors} *)

val base : string -> range
val restricted : string -> var -> formula -> range
(** [restricted rel v s] is [[EACH v IN rel: s]]; collapses to {!base}
    when [s] is [F_true]. *)

val attr : var -> string -> operand
val const : Value.t -> operand
val cint : int -> operand
val cstr : string -> operand
val param : string -> operand

val mk_atom : operand -> Value.comparison -> operand -> formula
val eq : operand -> operand -> formula
val ne : operand -> operand -> formula
val lt : operand -> operand -> formula
val le : operand -> operand -> formula
val gt : operand -> operand -> formula
val ge : operand -> operand -> formula

val f_and : formula -> formula -> formula
(** Connectives with constant propagation. *)

val f_or : formula -> formula -> formula
val f_not : formula -> formula
val f_some : var -> range -> formula -> formula
val f_all : var -> range -> formula -> formula
val conj : formula list -> formula
val disj : formula list -> formula

(** {1 Analysis} *)

val operand_var : operand -> var option
val atom_vars : atom -> Var_set.t
val is_monadic : atom -> bool
val is_dyadic : atom -> bool
val free_vars : formula -> Var_set.t
val bound_vars : formula -> Var_set.t
val all_atoms : formula -> atom list

val rename_free : var -> var -> formula -> formula
(** Capture-respecting renaming of a free variable. *)

val fresh_var : Var_set.t -> var -> var

val distinct_bound_vars : Var_set.t -> formula -> formula
(** Alpha-rename so every quantifier binds a distinct name, disjoint from
    [reserved] — the precondition of prenexing. *)

(** {1 Parameter placeholders} *)

val formula_params : Var_set.t -> formula -> Var_set.t
(** Accumulate the [$name] placeholders of a formula (including range
    restrictions). *)

val query_params : query -> string list
(** The placeholders of a query, sorted. *)

val subst_operand : Value.t Var_map.t -> operand -> operand
val subst_atom : Value.t Var_map.t -> atom -> atom
val subst_formula : Value.t Var_map.t -> formula -> formula
val subst_range : Value.t Var_map.t -> range -> range

val subst_query : Value.t Var_map.t -> query -> query
(** Replace every bound [$name] by its constant; placeholders without a
    binding are left in place. *)

val digest_query : query -> string
(** Unambiguous structural MD5 of a query (every string length-prefixed).
    Digest a query's shape ({!Normalize.shape}) to key a plan cache. *)

(** {1 Equality} *)

val compare_atoms_operand : operand -> operand -> int
(** Total order on operands, used to orient atoms canonically. *)

val equal_operand : operand -> operand -> bool
val equal_atom : atom -> atom -> bool
val equal_atom_mirrored : atom -> atom -> bool
(** Equality up to mirroring ([x op y] ~ [y flip-op x]). *)

val equal_range : range -> range -> bool
val equal_formula : formula -> formula -> bool

(** {1 Printing (paper's concrete syntax)} *)

val pp_operand : operand Fmt.t
val pp_atom : atom Fmt.t
val pp_range : range Fmt.t
val pp_formula : formula Fmt.t
val pp_query : query Fmt.t
val formula_to_string : formula -> string
val query_to_string : query -> string
