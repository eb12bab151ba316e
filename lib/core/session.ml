(* The front door of the query engine: a database plus a plan cache,
   with an explicit transaction surface.

   Planning a PASCAL/R selection is the expensive prefix of every
   evaluation — empty-range adaptation, standard form (prenex + DNF),
   strategy 3's range extension and strategy 4's quantifier pushing.
   A session runs that pipeline once per (query shape, options) and
   caches the resulting plan with the emptiness answers it was planned
   under:

   - the query shape is keyed by the MD5 digest of Normalize.shape: its
     variables renamed to positional names and every constant compared
     against an attribute lifted into a placeholder, so neither the
     spelling of variables nor those literals matter; each execution
     grounds the shape's plan with its own literals, asking again every
     emptiness question the placeholders left open;
   - the options fingerprint keys strategies and join order, which
     change the compiled plan;
   - validity is the paper's own rule: a plan depends on the data only
     through Standard_form.range_is_empty — the empty-range adaptation,
     strategy 3's range extension and Lemma 1's exceptions — so it
     stays valid while every answer it got still holds; quantifier
     pushing reads no data, and join order and access paths are chosen
     per execution.  A write to a relation the plan never asked about
     keeps the plan; a write that flips an answer re-plans.

   Every execution runs inside a transaction.  [read] and [write] pin a
   snapshot (Database.Txn) and hand the body a [Txn.t] whose executors
   evaluate against the pinned view through the session's plan cache —
   the answers are validated on that snapshot.  The plain [exec] family
   are single-statement autocommit wrappers over [read].

   A session is shared-database, single-domain: concurrent clients each
   create their own session over one store (what Workload.Driver and
   `pascalr serve` do); pins and installs synchronize inside
   Database. *)

open Relalg

let src = Logs.Src.create "pascalr.eval" ~doc:"PASCAL/R evaluation pipeline"

module Log = (val Logs.src_log src : Logs.LOG)

(* The full planning pipeline (paper Sections 2-4), uncached:
   adaptation, standard form, then the enabled transformations.  Each
   step runs under its own trace span. *)
let plan_only ?(opts = Exec_opts.default) db query =
  let strategy = opts.Exec_opts.strategy in
  let adapted =
    Obs.Trace.with_span "adapt" (fun () -> Standard_form.adapt_query db query)
  in
  if not (Calculus.equal_formula adapted.Calculus.body query.Calculus.body)
  then
    Log.debug (fun m ->
        m "empty-range adaptation rewrote the query to %a" Calculus.pp_query
          adapted);
  let sf =
    Obs.Trace.with_span "standard_form" (fun () ->
        let sf = Standard_form.of_query adapted in
        Obs.Trace.add_attr "conjunctions"
          (Obs.Json.Int (List.length sf.Standard_form.matrix));
        Obs.Trace.add_attr "prefix"
          (Obs.Json.Int (List.length sf.Standard_form.prefix));
        sf)
  in
  Log.debug (fun m ->
      m "standard form: %d conjunctions, prefix %d"
        (List.length sf.Standard_form.matrix)
        (List.length sf.Standard_form.prefix));
  let sf =
    if strategy.Strategy.range_extension || strategy.Strategy.cnf_extension
    then begin
      let sf' =
        Obs.Trace.with_span "range_extension" (fun () ->
            Range_ext.apply ~cnf:strategy.Strategy.cnf_extension db sf)
      in
      Log.debug (fun m ->
          m "range extension: %d -> %d conjunctions"
            (List.length sf.Standard_form.matrix)
            (List.length sf'.Standard_form.matrix));
      sf'
    end
    else sf
  in
  let plan = Obs.Trace.with_span "plan" (fun () -> Plan.of_standard_form sf) in
  if strategy.Strategy.quantifier_push then begin
    let plan' =
      Obs.Trace.with_span "quant_push" (fun () -> Quant_push.apply db plan)
    in
    Log.debug (fun m ->
        m "quantifier pushing: prefix %d -> %d"
          (List.length plan.Plan.prefix)
          (List.length plan'.Plan.prefix));
    plan'
  end
  else plan

type t = {
  s_db : Database.t;
  s_cache : Plan_cache.t;
}

let create ?cache_capacity db =
  { s_db = db; s_cache = Plan_cache.create ?capacity:cache_capacity () }

let db t = t.s_db
let cache_stats t = Plan_cache.stats t.s_cache
let cache_length t = Plan_cache.length t.s_cache
let clear_cache t = Plan_cache.clear t.s_cache

(* The shape digest ignores variable spelling and the literals compared
   against attributes; it keys the cumulative per-query statistics on
   its own, and — concatenated with the options fingerprint, which
   separates plans the knobs would compile differently — the plan
   cache. *)
let digest query =
  let _, shape, _ = Normalize.shape query in
  Calculus.digest_query shape

(* Build the Prepared without planning anything yet: the plan closure
   takes the database to plan against, so the same prepared query
   serves the store (autocommit) and any transaction's snapshot.  It
   grounds the lifted query's cached plan with the literals plus the
   caller's bindings; when they make an assumed range empty, the ground
   query is planned uncached (a reground).  [fetch] is the cached plan
   alone. *)
let prepare_with ~opts t query =
  let lifted, shape, literals = Normalize.shape query in
  let digest = Calculus.digest_query shape in
  let key = digest ^ "#" ^ Exec_opts.fingerprint opts in
  let fetch db =
    match Plan_cache.find t.s_cache db key with
    | Some planned -> planned
    | None ->
      let planned =
        Standard_form.recording (fun () -> plan_only ~opts db lifted)
      in
      Plan_cache.add t.s_cache key planned;
      planned
  in
  let plan db user =
    let b = Calculus.Var_map.union (fun _ lit _ -> Some lit) literals user in
    let plan, answers = fetch db in
    if Calculus.Var_map.is_empty b then plan
    else if Standard_form.hold_under b db answers then Plan.ground b plan
    else begin
      Obs.Metrics.incr "plan_cache.regrounds";
      plan_only ~opts db (Calculus.subst_query b lifted)
    end
  in
  (Prepared.make ~db:t.s_db ~opts ~digest ~query ~plan, fetch)

let prepare ?(opts = Exec_opts.default) t query =
  let p, fetch = prepare_with ~opts t query in
  (* Plan eagerly: prepare pays for planning, executions need not. *)
  ignore (fetch t.s_db : Plan.t * Standard_form.answers);
  p

(* --- The transaction surface --------------------------------------- *)

module Txn = struct
  type session = t

  type t = {
    x_session : session;
    x_inner : Database.Txn.t;
  }

  let session txn = txn.x_session
  let inner txn = txn.x_inner
  let database txn = Database.Txn.view txn.x_inner

  (* Buffered mutations: applied to the transaction's private copy now
     (so its own queries see them), logged and installed at commit. *)
  let insert txn name tup = Database.Txn.insert txn.x_inner name tup
  let delete_key txn name key = Database.Txn.delete_key txn.x_inner name key
  let clear txn name = Database.Txn.clear txn.x_inner name

  (* Executors against the pinned snapshot, through the session's plan
     cache.  The observation window opens around prepare + execute, so
     a cold query records as a replan and a repeat as a cache hit. *)

  let exec_report ?(opts = Exec_opts.default) ?name ?params txn query =
    let view = database txn in
    let since = Observe.window () in
    let p, _ = prepare_with ~opts txn.x_session query in
    Observe.run_lazy ~digest:(Prepared.digest p)
      ~text_of:(fun () -> Prepared.text p)
      ~opts
      ~rows_of:(fun r -> r.Exec_result.rows)
      (fun clock ->
        Prepared.exec_report_with ?name ?params ~within:view ~since clock p)

  let exec ?opts ?name ?params txn query =
    (exec_report ?opts ?name ?params txn query).Exec_result.result
end

let read t f =
  Database.with_read t.s_db (fun inner ->
      f { Txn.x_session = t; x_inner = inner })

(* An aborted write needs no cache repair: a plan cached inside it
   recorded the transaction's private relation states, which the store
   never holds, so its answers are asked again on the next snapshot. *)
let write t f =
  Database.with_write t.s_db (fun inner ->
      f { Txn.x_session = t; x_inner = inner })

(* One-shot conveniences: single-statement autocommit — pin a read
   snapshot, prepare + execute through the session cache (so a repeated
   one-shot query still hits). *)

let exec_report ?opts ?name ?params t query =
  read t (fun txn -> Txn.exec_report ?opts ?name ?params txn query)

let exec ?opts ?name ?params t query =
  (exec_report ?opts ?name ?params t query).Exec_result.result

let exec_traced ?(opts = Exec_opts.default) ?name ?params t query =
  (* The high-water gauge is cumulative across queries in one process;
     zero it so this trace's combination span reports this execution's
     maximum, not a larger one left over from an earlier run. *)
  Obs.Metrics.set_gauge "combination.max_ntuple" 0.0;
  Obs.Trace.collect "query"
    ~attrs:
      [
        ( "strategy",
          Obs.Json.Str (Strategy.to_string opts.Exec_opts.strategy) );
      ]
    (fun () ->
      (* Prepare inside the root span so planning spans (on a cache
         miss) are attributed to this query's trace; the observation
         window sits inside the span for the same reason. *)
      read t (fun txn -> Txn.exec_report ~opts ?name ?params txn query))
