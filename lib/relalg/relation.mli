(** Keyed mutable relations (the PASCAL/R [RELATION] type).

    Elements are tuples; the schema's key functionally determines the
    element.  The elements live in a persistent hash trie keyed by key
    value, so {!copy} is O(1) and a mutation copies only the O(log n)
    nodes on its key's path, never changing a state that a copy (a
    pinned snapshot) still holds.  [rel[keyval]] selected-variable
    access is {!find_key}; the instrumented {!scan} models the
    one-element-at-a-time reads of the paper's FOR EACH loops and feeds
    the strategy-1 scan-count experiments.  Scans and probes are counted only in the domain-local
    {!Obs.Metrics} registry — [relation.scans], [relation.probes], and
    [relation.scans.<name>] per named relation — so a caller reads its
    own execution's counts as deltas, exact under concurrency. *)

type t

val create : ?name:string -> Schema.t -> t

val name : t -> string
val schema : t -> Schema.t
val cardinality : t -> int
val is_empty : t -> bool

val insert : t -> Tuple.t -> unit
(** PASCAL/R [:+].  Idempotent on identical elements.
    @raise Errors.Duplicate_key if the key is bound to a different element.
    @raise Errors.Type_error if the tuple does not fit the schema.
    @raise Errors.Frozen if the relation is frozen (all mutators do). *)

val insert_unchecked : t -> Tuple.t -> unit
(** Fast-path insertion for operator outputs whose tuples are well typed
    by construction; skips the domain check.  For whole-tuple-key
    intermediates only: duplicate keys silently keep the first element. *)

val insert_list : t -> Tuple.t list -> unit
val delete_key : t -> Value.t list -> unit
val clear : t -> unit

val find_key : t -> Value.t list -> Tuple.t option
(** Selected variable [rel[keyval]]. *)

val find_key_exn : t -> Value.t list -> Tuple.t
(** @raise Errors.Dangling_reference if absent. *)

val mem_key : t -> Value.t list -> bool
val mem_tuple : t -> Tuple.t -> bool

val iter : (Tuple.t -> unit) -> t -> unit
(** Administrative iteration in hash order; not counted as a scan. *)

val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a

val scan : (Tuple.t -> unit) -> t -> unit
(** Instrumented full scan: counts [relation.scans] and, for a named
    relation, [relation.scans.<name>]. *)

val scan_exists : (Tuple.t -> bool) -> t -> bool
(** Instrumented existence test: one counted scan, as {!scan}, that
    stops at the first element satisfying the predicate. *)

val exists : (Tuple.t -> bool) -> t -> bool
val for_all : (Tuple.t -> bool) -> t -> bool

val attach_storage : t -> pool:Buffer_pool.t -> unit
(** Attach paged storage: contents are written to a fresh heap file and
    every subsequent {!scan} decodes the pages through [pool], whose
    miss count is the simulated disk I/O of the 1982 cost model.
    Insertions append; deletions mark the file for rebuild. *)

val buffer_pool : t -> Buffer_pool.t option
(** The pool the relation's paged storage reads through, if attached. *)

val backing_pages : t -> int option
(** Number of heap-file pages, when paged storage is attached. *)

val version : t -> int
(** Content version: bumped on every effective insertion, deletion and
    clear.  A state at an unchanged version holds unchanged contents,
    so memos keyed by (state, version) stay valid — a cached plan's
    emptiness answers. *)

val id : t -> int
(** A number of this state's own, fresh for every state made
    ({!create}, {!copy}, {!with_index}): equal ids are the same state,
    so a memo can key on [(id, version)] without holding the state. *)

val freeze : t -> unit
(** Mark this relation state immutable: every subsequent content
    mutation raises {!Errors.Frozen}.  Applied to the committed states
    of a durable (WAL-attached) database, whose snapshot readers may be
    iterating them concurrently; scans and probes are still counted.
    Irreversible; {!copy} of a frozen relation is unfrozen. *)

val frozen : t -> bool

val sorted : t -> Tuple.t array
(** The elements in {!Tuple.compare} order, in a fresh array. *)

val to_list : t -> Tuple.t list
(** Sorted, for deterministic output. *)

val of_list : ?name:string -> Schema.t -> Tuple.t list -> t

val copy : t -> t
(** O(1) in the relation's size: the copy shares the original's
    persistent tuple trie and index maps, and a mutation of either
    replaces its own, so neither sees the other's later writes.  The
    copy keeps the original's {!version} (a write transaction's private
    copy continues its lineage) and its secondary indexes, is unfrozen
    and has no paged storage.  It is a different state with its own
    {!id}, so a memo never mistakes one for the other. *)

(** {2 Secondary indexes}

    A relation state carries the secondary indexes over it and
    maintains them inside {!insert}, {!delete_key} and {!clear}
    (effective mutations only).  The database declares one by
    installing a new state built with {!with_index}. *)

val indexes : t -> Secondary_index.t list
(** In declaration order. *)

val build_index : t -> on:string list -> Secondary_index.t
(** An index over [on] holding this relation's tuples, built by one
    counted scan.
    @raise Errors.Unknown_attribute / Errors.Schema_error as
    {!Secondary_index.create}. *)

val with_index : t -> Secondary_index.t -> t
(** A new state with this one's tuples, version, paged storage and
    frozen flag, carrying [idx] after its own indexes (which it copies);
    [idx] must index exactly these tuples.  This state is unchanged, and
    must not be written once the new one replaces it: the two share
    their paged storage. *)

val rebuild_indexes : t -> t
(** {!with_index}'s new state, but with every index rebuilt from the
    tuples by {!build_index}. *)

val index_consistent : t -> Secondary_index.t -> bool
(** The index holds exactly this relation's tuples, each under its own
    component values. *)

val equal_set : t -> t -> bool
(** Set equality of the element sets. *)

val subset : t -> t -> bool
val pp : t Fmt.t
