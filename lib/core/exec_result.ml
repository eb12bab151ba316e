(* The one report shape of every execution.

   Prepared.exec_report_with, the one execution body, builds this
   record; Session.exec_report and Session.Txn.exec_report return it,
   the plain exec family return its result, and `analyze --json`
   serializes it — there is a single vocabulary for "what did this
   execution cost" instead of parallel ad-hoc tuples.  The phase split,
   the scan/probe counts, the plan-cache outcome and transaction/WAL
   activity are read as this domain's metric deltas over the
   execution's observation window. *)

open Relalg

(* How the plan cache served this execution's plan.  [Reground] is the
   slow path where a $param-dependent range turned out empty and the
   substituted query was re-planned from scratch. *)
type cache_outcome = Hit | Miss | Invalidated | Reground

let cache_outcome_to_string = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Invalidated -> "invalidated"
  | Reground -> "reground"

(* Transaction and WAL activity attributable to this execution: zero
   for pure reads, the commit/fsync story for writes through
   Session.write. *)
type txn_stats = {
  commits : int;
  conflicts : int;
  wal_appends : int;
  wal_fsyncs : int;
}

type t = {
  result : Relation.t;
  plan : Plan.t;
  rows : int;  (* cardinality of [result] *)
  scans : int;
      (* relation.scans delta over the observation window: full scans of
         database relations (the combination result is iterated
         uncounted) *)
  probes : int;  (* relation.probes delta: key lookups *)
  max_ntuple : int;  (* largest combined n-tuple relation *)
  intermediates : (string * int) list;
      (* sizes of all collection-phase structures *)
  access_paths : (string * string) list;
      (* collection structure key -> "probe" | "range" | "scan" *)
  join_algos : (string * string) list;
      (* keyed streaming join step -> "hash", the algorithm that ran *)
  collection_ms : float;
  combination_ms : float;
  construction_ms : float;
  cache : cache_outcome;
  txn : txn_stats;
}
