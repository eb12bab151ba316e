(** Relation statistics for the cost model: cardinalities and per
    attribute distinct counts and min/max, gathered in one scan per
    relation. *)

open Relalg

type attr_stats = {
  a_distinct : int;
  a_min : Value.t option;
  a_max : Value.t option;
}

type rel_stats = {
  r_cardinality : int;
  r_attrs : (string * attr_stats) list;
}

type t

val collect : Database.t -> t
val collect_relation : Relation.t -> rel_stats

val relation : t -> string -> rel_stats
(** @raise Errors.Unknown_relation *)

val cardinality : t -> string -> int

val attr : t -> string -> string -> attr_stats
(** @raise Errors.Unknown_attribute *)

val monadic_selectivity :
  t -> string -> string -> Value.comparison -> Value.t -> float
(** Selectivity of [attr op const]: [1/distinct] for [=], interpolation
    against min/max for the order comparisons. *)

val join_selectivity : t -> string -> string -> string -> string -> float
(** System-R style [1 / max(distinct, distinct)] for equality joins. *)

val pp : t Fmt.t

val column_distincts : Batch.columns -> (string * int) list
(** Distinct count per column of an intermediate reference relation, in
    schema order: ordinals are injective, so distinct ordinals are
    distinct references. *)
