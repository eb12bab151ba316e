(** The one report shape of every execution: the one execution body
    {!Prepared.exec_report_with} builds it, {!Session.exec_report} and
    [Session.Txn.exec_report] return it, and [analyze --json]
    serializes it. *)

open Relalg

type cache_outcome = Hit | Miss | Invalidated | Reground
(** How the plan cache served this execution's plan.  [Invalidated]:
    an emptiness answer the cached plan was compiled under no longer
    holds on the snapshot, so it was re-planned; [Reground]: a range
    the plan assumed non-empty because it mentions a $param turned out
    empty under the bindings, and the substituted query was planned
    uncached. *)

val cache_outcome_to_string : cache_outcome -> string

type txn_stats = {
  commits : int;
  conflicts : int;
  wal_appends : int;
  wal_fsyncs : int;
}
(** Transaction and WAL activity attributable to this execution (metric
    deltas over its observation window): zero for pure reads. *)

type t = {
  result : Relation.t;
  plan : Plan.t;
  rows : int;  (** cardinality of [result] *)
  scans : int;
      (** full relation scans: the [relation.scans] delta of the
          executing domain's metrics over the observation window (so
          exact while other domains read the same snapshot).  The
          combination result is iterated uncounted, so this is the
          scans of database relations. *)
  probes : int;
      (** key lookups: the [relation.probes] delta over the same
          window *)
  max_ntuple : int;  (** largest combined n-tuple relation *)
  intermediates : (string * int) list;
      (** sizes of all collection-phase structures *)
  access_paths : (string * string) list;
      (** access path per collection structure: ["probe"]
          (secondary-index equality), ["range"] (secondary-index range
          scan) or ["scan"] (heap scan) *)
  join_algos : (string * string) list;
      (** join algorithm run per streaming combination step that
          shares a variable with the accumulated result — always
          ["hash"] *)
  collection_ms : float;
  combination_ms : float;
  construction_ms : float;
  cache : cache_outcome;
  txn : txn_stats;
}
