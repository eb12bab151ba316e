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

type event = Inserted of Tuple.t | Deleted of Tuple.t | Cleared
(** Content-change events, fired on every {e effective} mutation (an
    idempotent re-insert or a miss delete fires nothing).  The database
    layer maintains secondary indexes through these. *)

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

val scan_fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a
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
    clear.  Feeds {!Database.stats_epoch}, which invalidates cached
    plans whose cardinality assumptions the change may break. *)

val freeze : t -> unit
(** Mark this relation state immutable: every subsequent content
    mutation raises {!Errors.Frozen}.  Applied to the committed states
    of a durable (WAL-attached) database, whose snapshot readers may be
    iterating them concurrently; scans and probes are still counted.
    Irreversible; {!copy} of a frozen relation is unfrozen. *)

val frozen : t -> bool

val add_observer : t -> (event -> unit) -> unit
(** Register a mutation observer.  Observers are not carried by
    {!copy}: a transaction's private copy starts unobserved. *)

val clear_observers : t -> unit

val to_list : t -> Tuple.t list
(** Sorted, for deterministic output. *)

val of_list : ?name:string -> Schema.t -> Tuple.t list -> t

val copy : ?name:string -> t -> t
(** O(1): the copy shares the original's persistent tuple trie, and a
    mutation of either replaces its own trie, so neither sees the
    other's later writes.  The copy keeps the original's {!version}
    (a write transaction's private copy continues its lineage), is
    unfrozen, unobserved and has no paged storage. *)

val equal_set : t -> t -> bool
(** Set equality of the element sets. *)

val subset : t -> t -> bool
val pp : t Fmt.t
