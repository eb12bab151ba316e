(* Prepared queries: the compile-once / execute-many half of the
   Session API.

   A prepared query holds no plan of its own — it holds a closure that
   goes through its session's plan cache, so every execution sees a
   valid plan: a cached plan whose emptiness answers still hold on the
   execution's snapshot is reused, any other is re-planned.

   Every execution runs against a *snapshot*: the plan closure and the
   evaluation phases all take the database to run against, and the
   public entry points pin a read transaction's view when the caller is
   not already inside one (autocommit).  A plan compiled inside a write
   transaction recorded the transaction's private relation states, so
   it is re-checked, never blindly reused, once those are gone.

   Plans may contain $name placeholders (Calculus.O_param).  The plan
   closure grounds them under the execution's bindings, so the
   collection, combination and construction phases only ever see
   ground plans. *)

open Relalg
open Calculus

exception Unbound_parameter of string
exception Unknown_parameter of string

type t = {
  p_db : Database.t;  (* the session's store; autocommit pins snapshots of it *)
  p_opts : Exec_opts.t;
  p_digest : string;  (* shape digest: the Query_stats key *)
  p_query : query;
  mutable p_text : string;  (* p_query printed once asked for, else "" *)
  p_params : string list;  (* required placeholders, sorted *)
  p_plan : Database.t -> Value.t Var_map.t -> Plan.t;
      (* the plan for a snapshot, ground under the bindings *)
}

let make ~db ~opts ~digest ~query ~plan =
  {
    p_db = db;
    p_opts = opts;
    p_digest = digest;
    p_query = query;
    p_text = "";
    p_params = query_params query;
    p_plan = plan;
  }

let params t = t.p_params
let opts t = t.p_opts
let digest t = t.p_digest

let text t =
  if t.p_text = "" then t.p_text <- Fmt.str "%a" pp_query t.p_query;
  t.p_text

let plan t = t.p_plan t.p_db Var_map.empty

let bindings_of t provided =
  List.iter
    (fun (name, _) ->
      if not (List.mem name t.p_params) then raise (Unknown_parameter name))
    provided;
  let b =
    List.fold_left (fun m (k, v) -> Var_map.add k v m) Var_map.empty provided
  in
  (match List.find_opt (fun p -> not (Var_map.mem p b)) t.p_params with
  | Some p -> raise (Unbound_parameter p)
  | None -> ());
  b

(* --- Execution ----------------------------------------------------- *)

(* The one execution body: ground, collect, combine, construct, and
   report.  It runs under a caller-supplied phase clock, so the
   observation window can start before this function — Session's
   one-shot paths open it around prepare + execute, attributing a cold
   one-shot's planning to the same record.  [since] is that window's
   start: the cache outcome, txn/WAL activity and the scan/probe counts
   are this domain's metric deltas from it, exact however many other
   domains read the same snapshot.  [?within] is the snapshot to
   execute against (a transaction's view); without it, a read
   transaction is pinned around the execution (autocommit). *)
let exec_report_with ?name ?(params = []) ?within ~since
    (clock : Observe.clock) t =
  let run db =
    let plan = t.p_plan db (bindings_of t params) in
    let coll =
      clock.time Observe.Collection (fun () ->
          Obs.Trace.with_span "collection" (fun () ->
              let coll =
                Collection.create ~batch_size:t.p_opts.Exec_opts.batch_size
                  ~use_index:t.p_opts.Exec_opts.use_index db
                  t.p_opts.Exec_opts.strategy plan
              in
              Collection.run coll;
              coll))
    in
    let outcome =
      clock.time Observe.Combination (fun () ->
          Obs.Trace.with_span "combination" (fun () ->
              Combination.evaluate ?par:(Exec_opts.par t.p_opts)
                ~join_order:t.p_opts.Exec_opts.join_order coll plan))
    in
    let result =
      clock.time Observe.Construction (fun () ->
          Obs.Trace.with_span "construction" (fun () ->
              Construction.run ?name db plan (Collection.batch_pool coll)
                outcome.Combination.o_result))
    in
    let now = Observe.window () in
    let scans, probes = Observe.scans_probes ~since now in
    {
      Exec_result.result;
      plan;
      rows = Relation.cardinality result;
      scans;
      probes;
      max_ntuple = outcome.Combination.o_max_ntuple;
      intermediates = Collection.intermediate_sizes coll;
      access_paths = Collection.access_paths coll;
      join_algos = outcome.Combination.o_join_algos;
      collection_ms = clock.elapsed Observe.Collection;
      combination_ms = clock.elapsed Observe.Combination;
      construction_ms = clock.elapsed Observe.Construction;
      cache = Observe.cache_outcome ~since now;
      txn = Observe.txn_stats ~since now;
    }
  in
  match within with
  | Some db -> run db
  | None ->
    Database.with_read t.p_db (fun txn -> run (Database.Txn.view txn))

let exec ?name ?params ?within t =
  let since = Observe.window () in
  let report =
    Observe.run_lazy ~digest:t.p_digest ~text_of:(fun () -> text t)
      ~opts:t.p_opts ~rows_of:(fun r -> r.Exec_result.rows)
      (fun clock -> exec_report_with ?name ?params ?within ~since clock t)
  in
  report.Exec_result.result
