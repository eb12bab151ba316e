(** Indexes associating component values with references (paper Section
    3.2, Figure 2): the collection phase's per-query structure, filled
    by the scan that builds it, optionally partial.  A reference here is
    the element's ordinal in the execution's tuple table
    ({!Batch.ordinals}).  Uncounted: the build that fills an index
    reports [index.entries] once from {!entry_count}, and a build that
    probes one reports its [index.probes] once. *)

type t

val create : Relation.t -> on:string list -> t
(** An empty index on the given components, filled by {!add} while a
    scan passes over the relation (strategy 1 shares that scan). *)

val add : t -> Tuple.t -> int -> unit
(** [add t tuple ord] indexes one element of the relation under its
    components, with its ordinal as the reference. *)

val entry_count : t -> int

val iter_matching : t -> Value.comparison -> Value.t -> (int -> unit) -> unit
(** [iter_matching t op probe f] applies [f] to the reference of every
    element whose indexed value [v] satisfies [v op probe].  [Eq] finds
    its bucket by lookup rather than a walk.  Read-only.
    @raise Errors.Type_error for comparison probes on multi-component
    indexes. *)

val exists_matching : t -> Value.comparison -> Value.t -> bool
(** Existence version of {!iter_matching}, with early exit. *)

val to_relation : ?name:string -> t -> Batch.pool -> Schema.t -> Relation.t
(** Materialize as the Figure-2 style relation [<components..., ref>];
    the pool is the one the ordinals were given in, the schema the
    source relation's. *)
