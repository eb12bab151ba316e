(** Indexes associating component values with references (paper Section
    3.2, Figure 2): the collection phase's per-query structure, filled
    by the scan that builds it, optionally partial. *)

type t

val create : Relation.t -> on:string list -> t
(** An empty index on the given components, filled by {!add} while a
    scan passes over the relation (strategy 1 shares that scan). *)

val add : t -> Relation.t -> Tuple.t -> unit
(** Index one element (the element must belong to the relation). *)

val entry_count : t -> int

val fold_matching_entries :
  t ->
  Value.comparison ->
  Value.t ->
  ('a -> int option -> Value.reference list -> 'a) ->
  'a ->
  'a
(** [fold_matching_entries t op probe f init] folds over the entries
    whose indexed value [v] satisfies [v op probe], each tagged with a
    stable entry ordinal (its position in the index's enumeration order
    while unmodified).  [Eq] probes find their bucket by lookup rather
    than a walk and report [None].  Read-only; counted once per call.
    @raise Errors.Type_error for comparison probes on multi-component
    indexes. *)

val exists_matching : t -> Value.comparison -> Value.t -> bool
(** Existence version of {!fold_matching_entries}, with early exit. *)

val to_relation : ?name:string -> t -> Schema.t -> Relation.t
(** Materialize as the Figure-2 style relation [<components..., ref>];
    the second argument is the source relation's schema. *)
