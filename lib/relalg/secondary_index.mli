(** Persistent secondary indexes: catalogued access paths over one
    relation state.  The {!Relation.t} an index covers carries it and
    maintains it inside its own mutations; this module sees only a
    schema and tuples.  A copy is O(1) (the buckets live in a persistent
    map of persistent tuple sets that maintenance replaces rather than
    changes), and database snapshots persist an index as checksummed
    pages.

    Equality probes look up one bucket; order comparisons walk the
    value-ordered map from the span's bound and report exact matching
    fractions for the cost model. *)

type t

val create : source:string -> Schema.t -> on:string list -> t
(** An empty index over the [on] components of [source]'s schema.
    @raise Errors.Unknown_attribute if a component is not in the schema.
    @raise Errors.Schema_error if [on] is empty. *)

val of_tuples : source:string -> Schema.t -> on:string list -> Tuple.t list -> t
(** Rebuild from persisted snapshot pages. *)

val copy : t -> t
(** MVCC copy-on-write in O(1): a private index sharing the original's
    buckets; maintenance of either replaces only its own map. *)

val on : t -> string list
val entry_count : t -> int

val add : t -> Tuple.t -> unit
(** Maintenance, called by the owning relation on every effective
    mutation.  [add] and [remove] are O(log n) however many tuples share
    the component values. *)

val remove : t -> Tuple.t -> unit
val clear : t -> unit

val mem : t -> Tuple.t -> bool
(** The tuple is indexed, under its own component values. *)

val probe1 : t -> Value.t -> Tuple.t list
(** Equality probe of a single-component index; counted. *)

val iter_matching : t -> Value.comparison -> Value.t -> (Tuple.t -> unit) -> unit
(** Enumerate tuples whose (single) indexed component satisfies
    [value op v].  Equality looks up its bucket; order comparisons walk
    their span of the ordered map and count as one range probe.
    @raise Errors.Type_error on an order probe of a multi-component
    index. *)

val iter_matching_uncounted :
  t -> Value.comparison -> Value.t -> (Tuple.t -> unit) -> unit
(** {!iter_matching} without its counter bumps ([index.probes],
    [secondary.probes], [secondary.range_scans]), for a build that
    probes once per element it scans and reports its probes once. *)

val exists_matching : t -> Value.comparison -> Value.t -> bool
(** Existence version of {!iter_matching}: an order comparison
    consults only the map's extreme key.  Uncounted, like
    {!iter_matching_uncounted}. *)

val matching_fraction :
  cap:float -> t -> Value.comparison -> Value.t -> float
(** Exact fraction of indexed tuples matching [op v] — one bucket
    lookup for equality, a walk of the matching span for order
    comparisons (no dearer than the range scan it prices).  The walk
    stops once more than [cap] of the entries matched, answering some
    fraction above [cap].  Uncounted (planning). *)

val sorted : t -> Tuple.t array
(** All indexed tuples in {!Tuple.compare} order, in a fresh array: the
    deterministic page enumeration the snapshot serializer persists. *)

val well_keyed : t -> (Tuple.t -> bool) -> bool
(** Every entry sits under its own component values and satisfies the
    predicate ({!Relation.index_consistent} passes membership in the
    relation). *)
