(** The engine's front door: a database, an LRU plan cache, and the
    transactional execution surface.

    {!prepare} runs the planning pipeline — empty-range adaptation,
    standard form, strategies 3 and 4 — at most once per (query
    shape, {!Exec_opts}) while the plan's emptiness answers hold;
    every execution then runs the one body
    {!Prepared.exec_report_with} — only the collection / combination /
    construction phases — and the [exec] family return its
    {!Exec_result.t} or that report's result relation.  Cache keys
    digest the query's shape ({!Normalize.shape}), so neither variable
    spelling nor the literals compared against attributes matter (each
    execution grounds the plan with its own); an entry is invalidated when a range it asked about
    ({!Standard_form.range_is_empty}) changes between empty and
    non-empty on the snapshot an execution runs against.

    Every execution runs inside a transaction.  {!read} and {!write}
    pin a snapshot and hand the body a {!Txn.t}; the body sees a stable
    view of the database for its whole duration regardless of
    concurrent committers, and a write transaction's buffered mutations
    become visible atomically at commit (or not at all).  The plain
    {!exec} family are single-statement autocommit conveniences.

    A session — including its plan cache and statistics — is a
    single-domain structure: share the database across domains, never
    the session.  Concurrent clients each create their own (what
    {!Workload.Driver} and [pascalr serve] do, one session per client
    domain); snapshot pinning and commit installation synchronize
    inside {!Relalg.Database}, and the process-global stores every
    execution feeds, {!Obs.Query_stats} and {!Obs.Flight_recorder},
    are mutex-protected and safe to reach from any number of sessions
    concurrently. *)

open Relalg
open Calculus

type t

val create : ?cache_capacity:int -> Database.t -> t
(** [cache_capacity] bounds the plan cache (default 64 plans). *)

val db : t -> Database.t
val cache_stats : t -> Plan_cache.stats
val cache_length : t -> int
val clear_cache : t -> unit

val digest : query -> string
(** The digest of the query's shape ({!Normalize.shape}) — the key under
    which executions accumulate in {!Obs.Query_stats} and (with the
    {!Exec_opts.fingerprint} appended) in the plan cache. *)

val prepare : ?opts:Exec_opts.t -> t -> query -> Prepared.t
(** Plan now (through the cache), execute later — possibly many times,
    with different [$name] parameter bindings, inside or outside a
    transaction ({!Prepared.exec}'s [?within]). *)

val plan_only : ?opts:Exec_opts.t -> Database.t -> query -> Plan.t
(** The uncached planning pipeline: adaptation + standard form +
    enabled transformations, without evaluating.  EXPLAIN and the
    cost-based planner use this directly. *)

(** {2 Transactions}

    A {!Txn.t} couples a pinned database snapshot
    ({!Relalg.Database.Txn}) with the session whose plan cache its
    executions go through. *)

module Txn : sig
  type session := t

  type t

  val session : t -> session

  val inner : t -> Database.Txn.t
  (** The underlying storage-layer transaction — for commit-state
      inspection or direct use of {!Relalg.Database.Txn}. *)

  val database : t -> Database.t
  (** The pinned snapshot this transaction reads (and, in a write
      transaction, mutates privately until commit). *)

  val insert : t -> string -> Tuple.t -> unit
  (** Buffered insert: visible to this transaction's own queries
      immediately, installed atomically at commit.
      @raise Invalid_argument in a read transaction. *)

  val delete_key : t -> string -> Value.t list -> unit
  val clear : t -> string -> unit

  val exec :
    ?opts:Exec_opts.t ->
    ?name:string ->
    ?params:(string * Value.t) list ->
    t ->
    query ->
    Relation.t
  (** Evaluate against the pinned snapshot, through the session's plan
      cache (a cached plan's emptiness answers are checked on the
      {e snapshot}). *)

  val exec_report :
    ?opts:Exec_opts.t ->
    ?name:string ->
    ?params:(string * Value.t) list ->
    t ->
    query ->
    Exec_result.t
end

val read : t -> (Txn.t -> 'a) -> 'a
(** [read t f] pins a snapshot and runs [f] over it.  Always commits
    (trivially — there is nothing to install); the snapshot is stable
    for [f]'s whole duration regardless of concurrent writers. *)

val write : t -> (Txn.t -> 'a) -> 'a
(** [write t f] runs [f] in a write transaction and commits its
    buffered mutations atomically — through the WAL first when the
    database is durable ({!Relalg.Database.attach_wal}).

    @raise Relalg.Errors.Txn_conflict
      under first-committer-wins: another transaction committed to a
      relation this one touched since it pinned its snapshot.  Nothing
      was installed; the caller retries by calling [write] again.
      Plans cached inside an aborted transaction stay cached: they are
      re-checked on the next snapshot like any other. *)

(** {2 One-shot execution}

    Single-statement autocommit: each call pins a read snapshot around
    prepare + execute, still through the session cache — a repeated
    one-shot query hits the cache and skips planning. *)

val exec :
  ?opts:Exec_opts.t ->
  ?name:string ->
  ?params:(string * Value.t) list ->
  t ->
  query ->
  Relation.t

val exec_report :
  ?opts:Exec_opts.t ->
  ?name:string ->
  ?params:(string * Value.t) list ->
  t ->
  query ->
  Exec_result.t

val exec_traced :
  ?opts:Exec_opts.t ->
  ?name:string ->
  ?params:(string * Value.t) list ->
  t ->
  query ->
  Exec_result.t * Obs.Trace.span
(** Like {!exec_report} under the span tracer: the root span ("query")
    carries the planning spans only when the cache misses, then
    collection, combination and construction. *)
