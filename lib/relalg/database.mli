(** Databases: catalogs of named relations and enumeration types, with
    reference dereferencing (the postfix [@] of paper Section 3.1). *)

type t

val create : unit -> t

val add_relation : t -> Relation.t -> unit
(** @raise Errors.Schema_error on anonymous or duplicate names. *)

val declare_relation : t -> name:string -> Schema.t -> Relation.t

val find_relation : t -> string -> Relation.t
(** @raise Errors.Unknown_relation *)

val find_relation_opt : t -> string -> Relation.t option
val relation_names : t -> string list
val relations : t -> Relation.t list

val declare_enum : t -> string -> string array -> Value.enum_info
val find_enum : t -> string -> Value.enum_info
val find_enum_opt : t -> string -> Value.enum_info option
val enums : t -> Value.enum_info list

val declare_index : t -> string -> on:string list -> Secondary_index.t
(** Declare a persistent secondary index on the named relation's
    component list, built by one counted scan.  The declaration installs
    a new state of the relation carrying the index, under the store
    lock: pinned readers keep the state they pinned, a write
    transaction that pinned the old state conflicts at commit, and a
    handle fetched before the declaration no longer is the catalogued
    state.  From then on the relation state maintains the index through
    every mutation — direct handle writes, transaction copies (which
    carry it and install with it at commit) and WAL replay.  Persisted
    by {!save} as checksummed pages.  A single-component index is also
    the paper's permanent index (Section 3.2, Example 3.1's
    [enrindex]): the collection phase probes it in place of building an
    unfiltered per-query index over an unrestricted range.
    @raise Errors.Schema_error on a duplicate component list.
    @raise Errors.Unknown_relation *)

val secondary_indexes : t -> string -> Secondary_index.t list
(** All secondary indexes declared on the named relation, in
    declaration order ({!Relation.indexes} of its catalogued state). *)

val secondary_on : t -> string -> string -> Secondary_index.t list
(** [secondary_on db rel attr]: the single-component indexes over
    [attr]. *)

val secondary_index_list : t -> (string * string list) list
(** Every declaration, sorted — the catalog the snapshot persists. *)

val deref : t -> Value.reference -> Tuple.t
(** Regain the selected variable from a reference.
    @raise Errors.Dangling_reference if the element is gone. *)

val deref_value : t -> Value.t -> Tuple.t

val attach_storage : t -> pool_pages:int -> Buffer_pool.t
(** Attach paged storage to every relation, sharing one buffer pool of
    the given capacity (in pages); returns the pool for statistics. *)

val pool_stats : t -> Buffer_pool.stats option
(** Combined stats of the distinct buffer pools attached to this
    database's relations; [None] when no paged storage is attached. *)

val pp : t Fmt.t

(** {2 Durable snapshots} *)

val snapshot_bytes : t -> Bytes.t
(** The deterministic single-file snapshot encoding (magic, enums,
    relations with schemas and tuples in sorted order, secondary-index
    pages, trailing Adler-32).  Saving the same logical database
    twice yields byte-identical output. *)

val save : t -> path:string -> unit
(** Atomically persist the snapshot: write [path ^ ".tmp"], fsync,
    rename over [path].  Consults the [db.save.crash] failpoint at two
    crash points (mid-write and pre-rename); in both cases the
    previously committed snapshot at [path] is left untouched.
    @raise Errors.Io_error on an injected crash. *)

val load : path:string -> t
(** Rebuild a database from a snapshot, secondary indexes included.
    @raise Errors.Corruption on bad magic (any format but the current
    one), checksum mismatch or truncated content. *)

(** {2 Snapshot-isolated transactions}

    MVCC at relation granularity: a transaction pins a snapshot — the
    store's persistent catalog value, read in O(1), sharing the
    committed {!Relation.t} states (indexes included) at one commit
    point — and a write transaction works on private copies that commit
    installs atomically, with first-committer-wins conflict detection:
    a writer loses when the store's state of a relation it wrote is no
    longer the state it pinned.  Pins and installs synchronize on the
    store's internal lock, so transactions from concurrent domains are
    safe; one transaction value itself is single-domain. *)

module Txn : sig
  type db := t

  type kind = Read | Write
  type state = Open | Committed | Aborted
  type t

  val view : t -> db
  (** The pinned snapshot: every relation at one commit point, plus this
      transaction's own uncommitted writes.  Run any executor against
      it; do not mutate it directly. *)

  val kind : t -> kind
  val state : t -> state

  val insert : t -> string -> Tuple.t -> unit
  (** Buffer an insertion into the named relation: applied to the
      transaction's private copy now, logged and installed at commit.
      @raise Errors.Duplicate_key / Errors.Type_error as
      {!Relation.insert} (the transaction stays open).
      @raise Invalid_argument on a read-only or closed transaction
      (all three mutators do). *)

  val delete_key : t -> string -> Value.t list -> unit
  val clear : t -> string -> unit

  val commit : t -> unit
  (** Make the write set durable (WAL append + fsync, when attached) and
      install it.  @raise Errors.Txn_conflict if a concurrent
      transaction committed first to a written relation (this
      transaction is aborted; retry on a fresh snapshot).
      @raise Errors.Io_error if an injected WAL crash lost the record. *)

  val abort : t -> unit
  (** Drop the write set.  Idempotent; a no-op on closed transactions. *)
end

val begin_read : t -> Txn.t
val begin_write : t -> Txn.t

val with_read : t -> (Txn.t -> 'a) -> 'a
(** Run [f] against a pinned snapshot; commits (a no-op for reads) on
    return, aborts if [f] raises. *)

val with_write : t -> (Txn.t -> 'a) -> 'a
(** Run [f] in a write transaction and commit on return (unless [f]
    already committed or aborted); aborts and re-raises if [f] raises. *)

(** {2 Write-ahead logging}

    [attach_wal db ~path] snapshots the database to [path], opens a WAL
    at [path ^ ".wal"] and freezes the committed relation states: from
    then on all content mutation must go through write transactions,
    whose operations are appended (group commit) and fsynced before
    installation.  A checkpoint saves a fresh snapshot and truncates
    the log; {!open_durable} is crash recovery. *)

val attach_wal : t -> path:string -> unit
(** @raise Errors.Io_error if a WAL is already attached (or via the
    [db.save.crash] failpoint during the initial snapshot). *)

val open_durable : path:string -> t
(** Load the snapshot at [path], replay the intact records of
    [path ^ ".wal"] on top (upsert semantics — idempotent over a
    checkpoint that crashed before truncating), checkpoint, and return
    the database with the WAL attached. *)

val checkpoint : t -> unit
(** Save the current committed state and truncate the WAL.  Waits out
    in-flight commits.  Consults the [wal.checkpoint.crash] failpoint at
    two crash points (before the snapshot and before the truncation);
    recovery is correct after either.  @raise Errors.Io_error *)

val close : t -> unit
(** Checkpoint and close the WAL; subsequent write commits fail. *)

val wal_attached : t -> bool
val durable : t -> bool
