(** EXPLAIN ANALYZE report assembly: runs a query under the span tracer
    and shapes the per-phase cost rows and the JSON document printed by
    [pascalr analyze].  Library-level so the report schema is pinned by
    a golden-file test. *)

open Relalg

val phase_names : string list
(** Pipeline steps in order; the three evaluation phases are always
    present in the report. *)

type phase_row = {
  ph_name : string;
  ph_ms : float;
  ph_scans : int;
  ph_probes : int;
  ph_max_ntuple : int;
  ph_tuples : int;
  ph_index_probes : int;
  ph_pool_fetches : int;
  ph_pool_misses : int;
}

type t = {
  a_report : Exec_result.t;
  a_root : Obs.Trace.span;
  a_rows : phase_row list;
  a_strategy : Strategy.t;
  a_opts : Exec_opts.t;  (** the options the analysis ran under *)
  a_cache : Plan_cache.stats;  (** the session's plan-cache activity *)
  a_repeat : int;
}

val run :
  ?pool_pages:int ->
  ?repeat:int ->
  ?opts:Exec_opts.t ->
  ?params:(string * Value.t) list ->
  Database.t ->
  Calculus.query ->
  t
(** Evaluate under the tracer; [pool_pages] first attaches paged storage
    with a shared buffer pool.  [repeat] (default 1) executes the query
    that many times through one session — the report and trace describe
    the last execution, so with [repeat > 1] the trace has no planning
    spans and the plan-cache stats show the hits.
    @raise Invalid_argument on non-positive [pool_pages] or [repeat]. *)

val schema_version : int
(** Version stamp of the analyze / stats JSON documents, bumped
    whenever sections are added or reshaped.  2 added [schema_version]
    itself, the cumulative per-digest [stats] section, the
    [flight_recorder] section, and made [plan_cache.hit_rate] a number
    (0.0 instead of null on zero lookups).  4 added the [exec] section
    (the unified {!Exec_result.t}) and the WAL/txn fault counters.  7
    dropped the tallies of deleted operators and
    [parallel.collection_builds]. *)

val to_json : database:string -> scale:int -> Database.t -> Calculus.query -> t -> Obs.Json.t
(** The full analyze document: query, strategy, totals, per-phase rows,
    intermediates, parallel-execution activity (jobs, tasks, chunks,
    par vs seq operator tallies), fault/recovery counters, plan-cache
    activity, cumulative per-digest stats, flight-recorder contents,
    plan and span trace. *)

val faults_json : unit -> Obs.Json.t
(** Fault-injection and recovery counters from the metrics registry,
    plus the currently armed failpoint sites. *)
