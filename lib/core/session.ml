(* The front door of the query engine: a database plus a plan cache,
   with an explicit transaction surface.

   Planning a PASCAL/R selection is the expensive prefix of every
   evaluation — empty-range adaptation, standard form (prenex + DNF),
   strategy 3's range extension and strategy 4's quantifier pushing.
   A session runs that pipeline once per (query structure, options,
   stats epoch) and caches the resulting plan:

   - the query structure is keyed by the MD5 digest of its
     alpha-canonical form, so spelling of variables does not matter;
   - the options fingerprint keys strategies and join order, which
     change the compiled plan;
   - the stats epoch (Database.stats_epoch) guards validity: inserts,
     deletions and snapshot loads move it, invalidating plans whose
     cost ordering or empty-range adaptation assumed the old contents.

   Every execution runs inside a transaction.  [read] and [write] pin a
   snapshot (Database.Txn) and hand the body a [Txn.t] whose executors
   evaluate against the pinned view through the session's plan cache —
   the epoch validated is the snapshot's, which continues the store's
   version lineage, so monotonicity holds across installs.  The plain
   [exec] family are single-statement autocommit wrappers over [read].

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

(* The structural digest ignores variable spelling; it keys the
   cumulative per-query statistics on its own, and — concatenated with
   the options fingerprint, which separates plans the knobs would
   compile differently — the plan cache. *)
let digest query = Calculus.digest_query (Normalize.canonical_query query)

(* Build the Prepared without planning anything yet: the replan and
   reground closures take the database to plan against, so the same
   prepared query serves the store (autocommit) and any transaction's
   snapshot, each validated under its own epoch. *)
let prepare_lazy ?(opts = Exec_opts.default) t query =
  let digest = digest query in
  let key = digest ^ "#" ^ Exec_opts.fingerprint opts in
  let replan db =
    let epoch = Database.stats_epoch db in
    match Plan_cache.find t.s_cache ~epoch key with
    | Some plan -> plan
    | None ->
      let plan = plan_only ~opts db query in
      Plan_cache.add t.s_cache ~epoch key plan;
      plan
  in
  Prepared.make ~db:t.s_db ~opts ~digest ~query ~replan
    ~reground:(fun db b -> plan_only ~opts db (Calculus.subst_query b query))

let prepare ?(opts = Exec_opts.default) t query =
  let p = prepare_lazy ~opts t query in
  (* Plan eagerly: prepare pays for planning, executions need not. *)
  ignore (Prepared.plan p : Plan.t);
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
    Observe.run ~digest:(digest query)
      ~text:(Fmt.str "%a" Calculus.pp_query query)
      ~opts
      ~rows_of:(fun r -> r.Exec_result.rows)
      (fun clock ->
        Prepared.exec_report_with ?name ?params ~within:view ~since clock
          (prepare_lazy ~opts txn.x_session query))

  let exec ?opts ?name ?params txn query =
    (exec_report ?opts ?name ?params txn query).Exec_result.result
end

let read t f =
  Database.with_read t.s_db (fun inner ->
      f { Txn.x_session = t; x_inner = inner })

(* On any aborted write — conflict or exception — drop the session's
   cached plans: they may have been compiled against the transaction's
   private snapshot, under epochs the store can later reach with
   different contents. *)
let write t f =
  try
    Database.with_write t.s_db (fun inner ->
        f { Txn.x_session = t; x_inner = inner })
  with e ->
    Plan_cache.clear t.s_cache;
    raise e

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
