(** Persistent secondary indexes: catalogued access paths, maintained
    incrementally through relation mutations, copied on write by MVCC
    transactions, and persisted in database snapshots as checksummed
    pages.

    [Hash] serves equality probes; [Sorted] additionally serves range
    restrictions by binary search over a lazily rebuilt sorted view and
    reports exact matching fractions for the cost model. *)

type kind = Hash | Sorted

val kind_to_string : kind -> string

val kind_of_string : string -> kind
(** @raise Errors.Type_error on an unknown kind name. *)

type t

val create : kind:kind -> Relation.t -> on:string list -> t
(** An empty index over [on] components of the relation.
    @raise Errors.Unknown_attribute if a component is not in the schema.
    @raise Errors.Schema_error if [on] is empty. *)

val build : kind:kind -> Relation.t -> on:string list -> t
(** Build by one counted scan of the source relation. *)

val of_tuples : kind:kind -> Relation.t -> on:string list -> Tuple.t list -> t
(** Rebuild from persisted snapshot pages; no relation scan. *)

val copy : t -> t
(** MVCC copy-on-write: a private index sharing all bucket spines with
    the original.  Probe counters start at zero. *)

val source : t -> string
val on : t -> string list
val kind : t -> kind
val entry_count : t -> int
val distinct_keys : t -> int
val probe_count : t -> int
val reset_counters : t -> unit

val on_insert : t -> Tuple.t -> unit
(** Incremental maintenance hooks, fed by {!Relation} observers. *)

val on_delete : t -> Tuple.t -> unit
val on_clear : t -> unit

val probe : t -> Value.t list -> Tuple.t list
(** Equality probe by component values; counted. *)

val probe1 : t -> Value.t -> Tuple.t list

val iter_matching : t -> Value.comparison -> Value.t -> (Tuple.t -> unit) -> unit
(** Enumerate tuples whose (single) indexed component satisfies
    [value op v].  Equality probes the bucket table; order comparisons
    binary-search the sorted view and count as one range probe.
    @raise Errors.Type_error on an order probe of a multi-component
    index. *)

val fold_matching_entries :
  t ->
  Value.comparison ->
  Value.t ->
  ('a -> int option -> Tuple.t list -> 'a) ->
  'a ->
  'a
(** {!Index.fold_matching_entries} over this index's buckets: the
    stand-in probe of a declared index serving as the paper's permanent
    index.  Order comparisons walk the bucket table, never the sorted
    view, so the probe writes nothing but the atomic probe counter and
    is safe under concurrent snapshot readers.
    Counted once per call. *)

val exists_matching : t -> Value.comparison -> Value.t -> bool
(** Existence version of {!fold_matching_entries}, with early exit. *)

val matching_fraction : t -> Value.comparison -> Value.t -> float
(** Exact fraction of indexed tuples matching [op v] — O(1) for
    equality, O(log n) for order comparisons.  Uncounted (planning). *)

val to_list : t -> Tuple.t list
(** All indexed tuples, sorted: the deterministic page enumeration the
    snapshot serializer persists. *)

val consistent_with : t -> Relation.t -> bool
(** Every indexed tuple is in the relation under the right key and
    every relation tuple is indexed; cardinalities agree. *)
