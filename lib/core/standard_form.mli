(** The standard form: prenex normal form with a DNF matrix (paper
    Section 2), plus the runtime adaptation for empty range relations. *)

open Relalg
open Calculus

type t = {
  free : (var * range) list;
  select : (var * string) list;
  prefix : Normalize.prefix_entry list;
  matrix : Normalize.dnf;
}

(** {2 Emptiness questions}

    Planning reads the data only through {!range_is_empty}, so a plan
    is valid wherever the answers it was planned under still hold. *)

type answer
(** One question asked while {!recording}: a range and its answer, with
    the relation states (ids and versions) the answer read — or, for a
    range that mentions a [$param], the assumption that it is
    non-empty. *)

type answers = answer list

val range_is_empty : Database.t -> range -> bool
(** Emptiness in [db]; an extended range costs one counted scan that
    stops at the first witness.  A range mentioning a [$param] is
    answered [false] (assumed non-empty).  Inside {!recording}, the
    question and its answer are recorded. *)

val recording : (unit -> 'a) -> 'a * answers
(** Run a planning function and return the distinct emptiness questions
    it asked (on this domain), in order. *)

val still_hold : Database.t -> answers -> bool
(** Does every recorded answer hold on [db]?  An answer whose relations
    are the very states it read (same {!Relalg.Relation.id}), at the
    same versions, holds without asking; any other is asked again (and, if
    confirmed, re-keyed to [db]'s states).  [$param] assumptions are not checked
    here: see {!hold_under}. *)

val hold_under : Value.t Var_map.t -> Database.t -> answers -> bool
(** Are the [$param] ranges assumed non-empty really non-empty in [db]
    under these bindings?  A range that still mentions an unbound
    [$param] stays assumed. *)

val adapt_query : Database.t -> query -> query
(** Replace quantifiers over empty ranges by their truth values so that
    the subsequent prenex transformation is an equivalence. *)

val of_query : query -> t
(** Compile under the non-empty-ranges assumption (the paper's
    compile-time transformation). *)

val compile : Database.t -> query -> t
(** [adapt_query] then [of_query]: the runtime pipeline entry point. *)

val to_query : t -> query
(** Rebuild a query; [run (to_query (compile db q)) = run q] on [db]. *)

val pp : t Fmt.t
