(* Prepared queries: the compile-once / execute-many half of the
   Session API.

   A prepared query holds no plan of its own — it holds a [replan]
   closure that goes through its session's plan cache, so every
   execution sees the freshest valid plan: a cache hit costs one
   hashtable probe, a stats-epoch change transparently re-runs the
   adapt / standard-form / plan pipeline.

   Every execution runs against a *snapshot*: the replan/reground
   closures and the evaluation phases all take the database to run
   against, and the public entry points pin a read transaction's view
   when the caller is not already inside one (autocommit).  The epoch
   the plan cache validates against is the snapshot's, so a plan
   compiled inside a write transaction is keyed to the transaction's
   own (post-write) epoch, not the store's.

   Plans may contain $name placeholders (Calculus.O_param).  Execution
   grounds the plan first — substituting every placeholder by its bound
   constant across free ranges, prefix ranges, matrix atoms and derived
   predicates — so the collection, combination and construction phases
   only ever see ground plans. *)

open Relalg
open Calculus

exception Unbound_parameter of string
exception Unknown_parameter of string

type t = {
  p_db : Database.t;  (* the session's store; autocommit pins snapshots of it *)
  p_opts : Exec_opts.t;
  p_digest : string;  (* structural digest: the Query_stats key *)
  p_text : string;  (* pretty-printed query, for stats display *)
  p_params : string list;  (* required placeholders, sorted *)
  p_replan : Database.t -> Plan.t;  (* through the session's plan cache *)
  p_reground : Database.t -> Value.t Var_map.t -> Plan.t;
      (* plan the fully substituted query from scratch: the slow path
         when a $param-dependent range turns out empty (below) *)
  p_param_qranges : range list;
      (* quantifier ranges whose restriction mentions a placeholder:
         their emptiness was assumed at plan time and must be
         re-checked once the bindings arrive *)
}

(* Quantifier ranges of the body whose restriction mentions a $param.
   Empty-range adaptation could not decide these at plan time (it
   assumed them non-empty), so execution probes them once ground. *)
let param_qranges body =
  let has_params f = not (Var_set.is_empty (formula_params Var_set.empty f)) in
  let rec go acc = function
    | F_true | F_false | F_atom _ -> acc
    | F_not f -> go acc f
    | F_and (a, b) | F_or (a, b) -> go (go acc a) b
    | F_some (_, r, f) | F_all (_, r, f) ->
      let acc =
        match r.restriction with
        | Some (_, rf) when has_params rf -> r :: go acc rf
        | Some (_, rf) -> go acc rf
        | None -> acc
      in
      go acc f
  in
  go [] body

let make ~db ~opts ~digest ~query ~replan ~reground =
  {
    p_db = db;
    p_opts = opts;
    p_digest = digest;
    p_text = Fmt.str "%a" pp_query query;
    p_params = query_params query;
    p_replan = replan;
    p_reground = reground;
    p_param_qranges = param_qranges query.body;
  }

let params t = t.p_params
let opts t = t.p_opts
let digest t = t.p_digest
let text t = t.p_text
let plan t = t.p_replan t.p_db

(* --- Grounding a plan ---------------------------------------------- *)

let rec subst_pushed b (p : Plan.pushed) =
  {
    p with
    Plan.p_range = subst_range b p.Plan.p_range;
    p_monadic = List.map (subst_atom b) p.Plan.p_monadic;
    p_nested = List.map (subst_pushed b) p.Plan.p_nested;
  }

let subst_conj b (c : Plan.conj) =
  {
    Plan.atoms = List.map (subst_atom b) c.Plan.atoms;
    derived = List.map (fun (v, p) -> (v, subst_pushed b p)) c.Plan.derived;
  }

let subst_prefix_entry b (e : Normalize.prefix_entry) =
  { e with Normalize.range = subst_range b e.Normalize.range }

let subst_plan b (plan : Plan.t) =
  {
    plan with
    Plan.free = List.map (fun (v, r) -> (v, subst_range b r)) plan.Plan.free;
    prefix = List.map (subst_prefix_entry b) plan.Plan.prefix;
    conjs = List.map (subst_conj b) plan.Plan.conjs;
  }

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

(* The current plan, grounded under [provided] bindings against [db]
   (the execution's snapshot).

   Fast path: substitute the bindings into the cached plan.  Slow path:
   if a quantifier range whose restriction mentions a $param turns out
   EMPTY under these bindings, the plan-time adaptation (which assumed
   it non-empty) no longer holds — re-plan the fully substituted query
   so SOME/ALL over the empty range simplify correctly. *)
let ground t db provided =
  let b = bindings_of t provided in
  let adaptation_stale =
    (not (Var_map.is_empty b))
    && List.exists
         (fun r -> Standard_form.range_is_empty db (subst_range b r))
         t.p_param_qranges
  in
  if adaptation_stale then begin
    Obs.Metrics.incr "plan_cache.regrounds";
    t.p_reground db b
  end
  else
    let plan = t.p_replan db in
    if Var_map.is_empty b then plan else subst_plan b plan

(* --- Execution ----------------------------------------------------- *)

(* The [_with] variants run under a caller-supplied phase clock, so the
   observation window can start before this function — Session's
   one-shot paths open it around prepare + execute, attributing a cold
   one-shot's planning to the same record.  [?within] is the snapshot
   to execute against (a transaction's view); without it, a read
   transaction is pinned around the execution (autocommit). *)

let exec_in ?name ~params (clock : Observe.clock) db t =
  let plan = ground t db params in
  let coll =
    Collection.create ~batch_size:t.p_opts.Exec_opts.batch_size
      ~use_index:t.p_opts.Exec_opts.use_index db t.p_opts.Exec_opts.strategy
      plan
  in
  clock.time Observe.Collection (fun () ->
      Obs.Trace.with_span "collection" (fun () -> Collection.run coll));
  let refs =
    clock.time Observe.Combination (fun () ->
        Obs.Trace.with_span "combination" (fun () ->
            Combination.evaluate ?par:(Exec_opts.par t.p_opts)
              ~join_order:t.p_opts.Exec_opts.join_order coll plan))
  in
  clock.time Observe.Construction (fun () ->
      Obs.Trace.with_span "construction" (fun () ->
          Construction.run ?name db plan refs))

let exec_with ?name ?(params = []) ?within clock t =
  match within with
  | Some db -> exec_in ?name ~params clock db t
  | None ->
    Database.with_read t.p_db (fun txn ->
        exec_in ?name ~params clock (Database.Txn.view txn) t)

(* Execute with instrumentation.  Scan/probe counters of the snapshot's
   relations are reset first, so the report reflects this execution
   alone; [since] is the caller's observation-window start, from which
   the cache outcome and txn/WAL activity are attributed. *)
let exec_report_in ?name ~params ~since (clock : Observe.clock) db t =
  Database.reset_counters db;
  let plan = ground t db params in
  let coll =
    Collection.create ~batch_size:t.p_opts.Exec_opts.batch_size
      ~use_index:t.p_opts.Exec_opts.use_index db t.p_opts.Exec_opts.strategy
      plan
  in
  clock.time Observe.Collection (fun () ->
      Obs.Trace.with_span "collection" (fun () -> Collection.run coll));
  let outcome =
    clock.time Observe.Combination (fun () ->
        Obs.Trace.with_span "combination" (fun () ->
            Combination.evaluate_outcome ?par:(Exec_opts.par t.p_opts)
              ~join_order:t.p_opts.Exec_opts.join_order coll plan))
  in
  let refs = outcome.Combination.o_result in
  let result =
    clock.time Observe.Construction (fun () ->
        Obs.Trace.with_span "construction" (fun () ->
            Construction.run ?name db plan refs))
  in
  {
    Exec_result.result;
    plan;
    rows = Relation.cardinality result;
    scans = Database.total_scans db;
    probes = Database.total_probes db;
    max_ntuple = outcome.Combination.o_max_ntuple;
    intermediates = Collection.intermediate_sizes coll;
    access_paths = Collection.access_paths coll;
    join_algos = outcome.Combination.o_join_algos;
    collection_ms = clock.elapsed Observe.Collection;
    combination_ms = clock.elapsed Observe.Combination;
    construction_ms = clock.elapsed Observe.Construction;
    cache = Observe.cache_outcome ~since;
    txn = Observe.txn_stats ~since;
  }

let exec_report_with ?name ?(params = []) ?within ~since clock t =
  match within with
  | Some db -> exec_report_in ?name ~params ~since clock db t
  | None ->
    Database.with_read t.p_db (fun txn ->
        exec_report_in ?name ~params ~since clock (Database.Txn.view txn) t)

let exec ?name ?params ?within t =
  Observe.run ~digest:t.p_digest ~text:t.p_text ~opts:t.p_opts
    ~rows_of:Relation.cardinality (fun clock ->
      exec_with ?name ?params ?within clock t)

let exec_report ?name ?params t =
  let since = Observe.window () in
  Observe.run ~digest:t.p_digest ~text:t.p_text ~opts:t.p_opts
    ~rows_of:(fun r -> r.Exec_result.rows)
    (fun clock -> exec_report_with ?name ?params ~since clock t)

(* Execute under the span tracer.  On a cache hit the root "query" span
   has only collection / combination / construction children — the
   planning spans appear exactly when the cache re-plans. *)
let exec_traced ?name ?params t =
  (* The high-water gauge is cumulative across queries in one process;
     zero it so this trace's combination span reports this execution's
     maximum, not a larger one left over from an earlier run. *)
  Obs.Metrics.set_gauge "combination.max_ntuple" 0.0;
  Obs.Trace.collect "query"
    ~attrs:
      [
        ( "strategy",
          Obs.Json.Str (Strategy.to_string t.p_opts.Exec_opts.strategy) );
      ]
    (fun () -> exec_report ?name ?params t)
