(** Observability glue around one query execution.

    {!run} is the single choke point through which every
    {!Session} / {!Prepared} execution reports itself: it times the
    whole execution and the three evaluation phases, reads plan-cache
    and storage counter deltas over the window, then feeds the
    cumulative {!Obs.Query_stats} registry and the always-on
    {!Obs.Flight_recorder} ring.  It also honours slow-query arming:
    an execution of an armed digest runs under a full
    {!Obs.Trace.collect} and the span is handed to
    {!Obs.Flight_recorder.capture}. *)

type phase = Collection | Combination | Construction

type clock = {
  time : 'a. phase -> (unit -> 'a) -> 'a;
  elapsed : phase -> float;
}
(** The execution body wraps each evaluation phase in [clock.time], so
    the recorded phase split reflects where the wall time actually
    went; [elapsed] reads a phase's accumulated milliseconds back, so
    the body can embed its own split in an {!Exec_result.t}. *)

type window
(** An opaque snapshot of the counters {!run} attributes over its
    observation window. *)

val window : unit -> window

(* The attributions below compare a window's start [since] with a
   later snapshot [now] of the same domain. *)

val cache_outcome : since:window -> window -> Exec_result.cache_outcome
(** The most specific plan-cache event between the snapshots:
    reground > invalidated > miss > hit. *)

val txn_stats : since:window -> window -> Exec_result.txn_stats
(** Transaction commit/conflict and WAL append/fsync deltas. *)

val scans_probes : since:window -> window -> int * int
(** [relation.scans] and [relation.probes] deltas — exact under
    concurrency, since every domain counts in its own registry. *)

val run :
  digest:string ->
  text:string ->
  opts:Exec_opts.t ->
  rows_of:('r -> int) ->
  (clock -> 'r) ->
  'r
(** [run ~digest ~text ~opts ~rows_of f] executes [f], records the
    execution under [digest], and returns [f]'s result.  Cache-hit /
    replan attribution reads [plan_cache.*] counter deltas over the
    window, so callers must open the window around {e all} planning
    work for the execution (Session's one-shot paths call this around
    prepare + execute).  Exceptions propagate unrecorded. *)

val run_lazy :
  digest:string -> text_of:(unit -> string) -> opts:Exec_opts.t ->
  rows_of:('r -> int) -> (clock -> 'r) -> 'r
(** {!run}, printing the text only for a new {!Obs.Query_stats} entry. *)
