(** Executable query plans: the standard form refined with strategy 4's
    derived predicates (quantifiers moved into the matrix for
    collection-phase evaluation, paper Section 4.4). *)

open Relalg
open Calculus

type pushed = {
  p_quant : Normalize.quant;
  p_var : var;  (** the pushed variable vn *)
  p_range : range;
  p_op : Value.comparison;  (** [vm.outer_attr op vn.inner_attr] *)
  p_outer_attr : string;
  p_inner_attr : string;
  p_monadic : atom list;  (** monadic join terms over vn *)
  p_nested : pushed list;  (** derived predicates over vn, pushed earlier *)
}
(** A derived predicate on outer variable vm:
    [Q vn IN range (monadic ∧ nested ∧ vm.outer_attr op vn.inner_attr)]. *)

type conj = {
  atoms : Normalize.conjunction;
  derived : (var * pushed) list;  (** keyed by the outer variable *)
}

type t = {
  free : (var * range) list;
  select : (var * string) list;
  prefix : Normalize.prefix_entry list;
  conjs : conj list;
}

val of_standard_form : Standard_form.t -> t

val ground : Value.t Var_map.t -> t -> t
(** Substitute bound [$name] placeholders everywhere in the plan. *)

val conj_vars : conj -> Var_set.t
(** Variables of the atoms plus outer variables of derived predicates. *)

val plan_vars : t -> Var_set.t

val variable_order : t -> var list
(** Free variables first, then prefix order: the canonical n-tuple
    column order of the combination phase. *)

val range_of : t -> var -> range option

val monadic_over : var -> atom list -> atom list
val dyadic_over : var -> atom list -> atom list

val atom_id : atom -> string
(** Stable textual identity, canonical under mirroring; used as a memo
    key by the collection phase. *)

val atoms_id : atom list -> string
val pushed_id : pushed -> string
val derived_id : var * pushed -> string

val pp_pushed : pushed Fmt.t
val pp_conj : conj Fmt.t
val pp : t Fmt.t
