(** Cumulative per-query execution statistics.

    One entry per plan-cache digest (the structural MD5 of the query's
    shape: its variables renamed and its literals lifted), accumulated across every {!Core.Session} /
    {!Core.Prepared} execution in the process — the pg_stat_statements
    view of the engine.  Each entry tracks call and plan-cache-hit
    counts, replans, total rows produced, a bucketed wall-clock latency
    histogram (so p50/p95/p99 survive accumulation), and the
    collection / combination / construction phase time split.

    The registry is process-global and mutex-protected; entries are
    keyed only by digest, so the same query under different exec
    options shares an entry (the options fingerprint records the most
    recent execution's settings). *)

type entry = {
  qs_digest : string;
  mutable qs_query : string;  (** representative text, first seen *)
  mutable qs_opts : string;  (** exec-options fingerprint, last seen *)
  mutable qs_calls : int;
  mutable qs_cache_hits : int;
  mutable qs_replans : int;
      (** planning-pipeline runs: cache misses, invalidations and
          parameter regrounds *)
  mutable qs_rows : int;  (** total result tuples over all calls *)
  qs_latency : Histogram.t;  (** wall ms per execution *)
  mutable qs_collection_ms : float;
  mutable qs_combination_ms : float;
  mutable qs_construction_ms : float;
}

val record :
  digest:string ->
  query:string ->
  opts:string ->
  wall_ms:float ->
  collection_ms:float ->
  combination_ms:float ->
  construction_ms:float ->
  rows:int ->
  cache_hit:bool ->
  replans:int ->
  unit
(** Fold one execution into the digest's entry, creating it on first
    sight. *)

val find : string -> entry option
val entries : unit -> entry list
(** All entries, busiest (most calls) first; digest breaks ties. *)

val reset : unit -> unit

val entry_to_json : entry -> Json.t
val to_json : unit -> Json.t
(** List of entries in {!entries} order; each entry carries its latency
    histogram as [{count, sum, min, max, mean, p50, p95, p99}] and a
    [phases_ms] object. *)

val pp : unit Fmt.t
(** Text table of all entries. *)
