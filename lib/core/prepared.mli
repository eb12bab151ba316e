(** Prepared queries: compile once via {!Session.prepare}, execute many
    times.  Execution re-validates the plan against the stats epoch of
    the snapshot it runs against through the session's plan cache,
    grounds any [$name] placeholders, then runs only the collection /
    combination / construction phases.  Entry points without an
    explicit snapshot pin a read transaction for the duration of the
    execution (autocommit). *)

open Relalg

exception Unbound_parameter of string
(** A placeholder the query requires was not bound at execution. *)

exception Unknown_parameter of string
(** A binding names a placeholder the query does not contain. *)

type t

val make :
  db:Database.t ->
  opts:Exec_opts.t ->
  digest:string ->
  query:Calculus.query ->
  replan:(Database.t -> Plan.t) ->
  reground:(Database.t -> Relalg.Value.t Calculus.Var_map.t -> Plan.t) ->
  t
(** Used by {!Session.prepare}; [replan db] must consult the session's
    plan cache under [db]'s current stats epoch ([db] is the snapshot
    the execution runs against).  [digest] is the structural digest of
    the alpha-canonical query — the key under which executions
    accumulate in {!Obs.Query_stats}.  [reground db] must plan the
    fully substituted query from scratch against [db] — the fallback
    taken when a [$param]-dependent quantifier range turns out empty
    under the actual bindings, so the empty-range adaptation assumed
    at plan time no longer holds (counted as
    [plan_cache.regrounds]). *)

val params : t -> string list
(** The [$name] placeholders an execution must bind, sorted. *)

val opts : t -> Exec_opts.t

val digest : t -> string
(** The structural digest executions are accounted under. *)

val text : t -> string
(** The query pretty-printed once at prepare time. *)

val plan : t -> Plan.t
(** The current (possibly re-validated) plan against the session's
    store, placeholders intact. *)

val exec :
  ?name:string ->
  ?params:(string * Relalg.Value.t) list ->
  ?within:Database.t ->
  t ->
  Relation.t
(** The result of {!exec_report_with}, recorded under its own
    observation window.  Autocommit: pins a read snapshot around the
    execution, unless [?within] supplies a transaction's view to run
    against.
    @raise Unbound_parameter if a required placeholder is missing.
    @raise Unknown_parameter on a binding the query does not use. *)

val exec_report_with :
  ?name:string ->
  ?params:(string * Relalg.Value.t) list ->
  ?within:Database.t ->
  since:Observe.window ->
  Observe.clock ->
  t ->
  Exec_result.t
(** The one execution body every query runs, under a caller-supplied
    {!Observe.clock} and no recording of its own — {!Session}'s paths
    use it so the observation window also covers prepare.  [?within]
    is the snapshot to run against (a transaction's view); when absent
    a read transaction is pinned around the execution.  [since] is the
    observation-window start from which the report's cache outcome,
    txn/WAL stats and scan/probe counts are attributed. *)
