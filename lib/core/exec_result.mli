(** The one report shape of every instrumented execution:
    {!Session.exec_report}, [Session.Txn.exec_report] and
    {!Prepared.exec_report} all return it, and [analyze --json]
    serializes it. *)

open Relalg

type cache_outcome = Hit | Miss | Invalidated | Reground
(** How the plan cache served this execution's plan.  [Invalidated]:
    the cached plan was compiled under a different stats epoch;
    [Reground]: a $param-dependent range turned out empty under the
    bindings and the substituted query was re-planned from scratch. *)

val cache_outcome_to_string : cache_outcome -> string

type txn_stats = {
  commits : int;
  conflicts : int;
  wal_appends : int;
  wal_fsyncs : int;
}
(** Transaction and WAL activity attributable to this execution (metric
    deltas over its observation window): zero for pure reads. *)

val no_txn_stats : txn_stats

type t = {
  result : Relation.t;
  plan : Plan.t;
  rows : int;  (** cardinality of [result] *)
  scans : int;  (** counted full relation scans of the database *)
  probes : int;  (** key lookups against database relations *)
  max_ntuple : int;  (** largest combined n-tuple relation *)
  intermediates : (string * int) list;
      (** sizes of all collection-phase structures *)
  access_paths : (string * string) list;
      (** access path per collection structure: ["probe"]
          (secondary-index equality), ["range"] (sorted-index range
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
