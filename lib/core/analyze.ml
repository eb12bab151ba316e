(* EXPLAIN ANALYZE report assembly.

   Runs a query under the span tracer and shapes the result into the
   per-phase cost rows and the machine-readable JSON document that
   `pascalr analyze` prints.  Lives in the library (rather than the CLI)
   so the report schema is a tested artifact: the golden-file test pins
   the JSON key paths, and any drift fails the suite instead of silently
   breaking downstream consumers. *)

open Relalg

let phase_names =
  [
    "adapt";
    "standard_form";
    "range_extension";
    "plan";
    "quant_push";
    "collection";
    "combination";
    "construction";
  ]

let eval_phases = [ "collection"; "combination"; "construction" ]

type phase_row = {
  ph_name : string;
  ph_ms : float;
  ph_scans : int;
  ph_probes : int;
  ph_max_ntuple : int;
  ph_tuples : int;
  ph_index_probes : int;
  ph_pool_fetches : int;
  ph_pool_misses : int;
}

let phase_row_of_span (s : Obs.Trace.span) =
  let c = Obs.Trace.counter s in
  {
    ph_name = s.Obs.Trace.sp_name;
    ph_ms = s.Obs.Trace.sp_elapsed_ms;
    ph_scans = c "relation.scans";
    ph_probes = c "relation.probes";
    ph_max_ntuple =
      (match
         Obs.Metrics.get_gauge s.Obs.Trace.sp_metrics "combination.max_ntuple"
       with
      | Some g -> int_of_float g
      | None -> 0);
    ph_tuples = c "relation.inserts";
    ph_index_probes = c "index.probes";
    ph_pool_fetches = c "pool.fetches";
    ph_pool_misses = c "pool.misses";
  }

(* A row for every pipeline step that actually ran, in pipeline order;
   the three evaluation phases are always present (zero row if their
   span is somehow missing) so the report shape is stable. *)
let phase_rows root =
  List.filter_map
    (fun name ->
      match Obs.Trace.find root name with
      | Some s -> Some (phase_row_of_span s)
      | None ->
        if List.mem name eval_phases then
          Some
            {
              ph_name = name;
              ph_ms = 0.0;
              ph_scans = 0;
              ph_probes = 0;
              ph_max_ntuple = 0;
              ph_tuples = 0;
              ph_index_probes = 0;
              ph_pool_fetches = 0;
              ph_pool_misses = 0;
            }
        else None)
    phase_names

type t = {
  a_report : Exec_result.t;
  a_root : Obs.Trace.span;
  a_rows : phase_row list;
  a_strategy : Strategy.t;
  a_opts : Exec_opts.t;
  a_cache : Plan_cache.stats;
  a_repeat : int;
}

(* [repeat] executes the query [repeat] times through one session: the
   first execution plans and fills the cache, later ones hit it.  The
   report and trace describe the LAST execution — with [repeat > 1] the
   trace carries no planning spans, and the plan_cache section shows
   the hits — so `analyze --repeat` demonstrates prepared re-execution
   end to end. *)
let run ?pool_pages ?(repeat = 1) ?(opts = Exec_opts.default) ?params db q =
  if repeat < 1 then invalid_arg "Analyze.run: repeat must be positive";
  let pool =
    match pool_pages with
    | Some n when n <= 0 ->
      invalid_arg "Analyze.run: pool_pages must be positive"
    | Some n -> Some (Database.attach_storage db ~pool_pages:n)
    | None -> None
  in
  let session = Session.create db in
  let rec go i =
    (* The pool's statistics belong to the simulated device, not to an
       execution: zero them so the report's pool section describes this
       execution alone. *)
    Option.iter Buffer_pool.reset_stats pool;
    let outcome = Session.exec_traced ~opts ?params session q in
    if i >= repeat then outcome else go (i + 1)
  in
  let report, root = go 1 in
  {
    a_report = report;
    a_root = root;
    a_rows = phase_rows root;
    a_strategy = opts.Exec_opts.strategy;
    a_opts = opts;
    a_cache = Session.cache_stats session;
    a_repeat = repeat;
  }

let phase_row_json r =
  let open Obs.Json in
  let hit_rate =
    if r.ph_pool_fetches = 0 then Null
    else
      Float
        (float_of_int (r.ph_pool_fetches - r.ph_pool_misses)
        /. float_of_int r.ph_pool_fetches)
  in
  Obj
    [
      ("name", Str r.ph_name);
      ("wall_ms", Float r.ph_ms);
      ("scans", Int r.ph_scans);
      ("probes", Int r.ph_probes);
      ("max_ntuple", Int r.ph_max_ntuple);
      ("tuples_inserted", Int r.ph_tuples);
      ("index_probes", Int r.ph_index_probes);
      ("pool_fetches", Int r.ph_pool_fetches);
      ("pool_misses", Int r.ph_pool_misses);
      ("pool_hit_rate", hit_rate);
    ]

let pool_stats_json db =
  let open Obs.Json in
  match Database.pool_stats db with
  | None -> Null
  | Some s ->
    Obj
      [
        ("fetches", Int s.Buffer_pool.fetches);
        ("misses", Int s.Buffer_pool.misses);
        ("evictions", Int s.Buffer_pool.evictions);
        ("invalidations", Int s.Buffer_pool.invalidations);
        ("hit_rate", Float (Buffer_pool.hit_rate s));
      ]

(* Fault-injection and recovery activity, as counted in the global
   metrics registry, plus the currently armed failpoint sites. *)
let fault_counters =
  [
    "failpoint.fired";
    "heap.torn_writes";
    "storage.corruption_detected";
    "storage.recovery_rebuilds";
    "pool.evict_io_failures";
    "db.save_crashes";
    "wal.append_crashes";
    "wal.fsync_crashes";
    "wal.checkpoint_crashes";
    "wal.replayed_txns";
    "db.recoveries";
    "txn.conflicts";
  ]

let faults_json () =
  let open Obs.Json in
  Obj
    (List.map
       (fun name -> (name, Int (Obs.Metrics.counter_value name)))
       fault_counters
    @ [
        ( "armed",
          List
            (List.map
               (fun (site, trig) ->
                 Str (site ^ "=" ^ Failpoint.trigger_to_string trig))
               (Failpoint.armed_sites ())) );
      ])

(* Combination-engine activity: join traffic through the streaming
   pipeline plus the per-operator fused/materialized tallies.  Fixed
   key lists (absent counters read as 0) keep the report shape stable
   across queries and engines. *)
let fused_ops = [ "project"; "join"; "product" ]
let materialized_ops = [ "stream"; "union"; "divide" ]

let combination_json () =
  let open Obs.Json in
  let tally prefix ops =
    Obj
      (List.map
         (fun op -> (op, Int (Obs.Metrics.counter_value (prefix ^ op))))
         ops)
  in
  Obj
    [
      ( "join_rows_in",
        Int (Obs.Metrics.counter_value "combination.join_rows_in") );
      ( "join_rows_out",
        Int (Obs.Metrics.counter_value "combination.join_rows_out") );
      ("fused", tally "algebra.fused." fused_ops);
      ("materialized", tally "algebra.materialized." materialized_ops);
      (* Vectorized-kernel traffic: rows entering / surviving the
         batched chains, and the wall time spent inside the kernel
         loops — at every batch_size, 1 included. *)
      ( "batch",
        Obj
          [
            ("rows_in", Int (Obs.Metrics.counter_value "algebra.batch.rows_in"));
            ( "rows_out",
              Int (Obs.Metrics.counter_value "algebra.batch.rows_out") );
            ( "kernel_ns",
              Int (Obs.Metrics.counter_value "algebra.batch.kernel_ns") );
          ] );
    ]

(* Multicore activity: the parallelism budget the analysis ran under and
   what the domain pool actually did with it.  A stream materialization
   that fanned its windows out tallies under both algebra.par.stream and
   algebra.materialized.stream, so the serial count is (materialized -
   par); under jobs = 1 the par counter is 0. *)
let par_ops = [ "stream" ]

let parallel_json a =
  let open Obs.Json in
  let c = Obs.Metrics.counter_value in
  let seq_of op =
    max 0 (c ("algebra.materialized." ^ op) - c ("algebra.par." ^ op))
  in
  Obj
    [
      ("jobs", Int a.a_opts.Exec_opts.jobs);
      ("par_threshold", Int a.a_opts.Exec_opts.par_threshold);
      ("batch_size", Int a.a_opts.Exec_opts.batch_size);
      ("tasks", Int (c "parallel.tasks"));
      ("chunks", Int (c "parallel.chunks"));
      ( "operators",
        Obj
          [
            ( "par",
              Obj (List.map (fun op -> (op, Int (c ("algebra.par." ^ op)))) par_ops)
            );
            ("seq", Obj (List.map (fun op -> (op, Int (seq_of op))) par_ops));
          ] );
    ]

(* Plan-cache activity of the session the analysis ran in. *)
let plan_cache_json a =
  let open Obs.Json in
  let s = a.a_cache in
  Obj
    [
      ("repeat", Int a.a_repeat);
      ("hits", Int s.Plan_cache.hits);
      ("misses", Int s.Plan_cache.misses);
      ("evictions", Int s.Plan_cache.evictions);
      ("invalidations", Int s.Plan_cache.invalidations);
      ("hit_rate", Float (Plan_cache.hit_rate s));
    ]

(* Report schema version, bumped whenever sections are added or
   reshaped.  2: schema_version itself, cumulative per-digest "stats",
   the "flight_recorder" section, and plan_cache.hit_rate becoming a
   number (0.0 instead of null on zero lookups).  3: the
   "combination.batch" counters and "parallel.batch_size" of the
   vectorized execution path.  4: the "exec" section (the unified
   {!Exec_result.t}: rows, phase split, plan-cache outcome, txn/WAL
   activity) and the WAL/txn fault counters.  5: exec.access_paths
   (per collection structure: probe/range/scan) and exec.join_algos
   (per streaming join step) of the physical-choice reporting.  6:
   parallel.operators reports only "stream", the one operator that
   fans out, and exec.join_algos names only "hash", the one join
   algorithm.  7: combination.fused keeps project/join/product,
   combination.materialized keeps stream/union/divide (the operators
   that still exist), and parallel.collection_builds is gone with the
   collection phase's fan-out.  8: span metrics carry the per-relation
   relation.scans.<name> counters, "plan" renders the plan the
   execution ran, and totals.pool describes the last execution. *)
let schema_version = 8

(* The last execution's unified result, as the executor reported it:
   the phase split from the execution clock, the plan-cache outcome of
   its observation window, and the transactional footprint (commit /
   conflict / WAL append / fsync deltas — all zero for a read-only
   query over a non-durable database). *)
let exec_json (r : Exec_result.t) =
  let open Obs.Json in
  Obj
    [
      ("rows", Int r.Exec_result.rows);
      ( "phase_ms",
        Obj
          [
            ("collection", Float r.Exec_result.collection_ms);
            ("combination", Float r.Exec_result.combination_ms);
            ("construction", Float r.Exec_result.construction_ms);
          ] );
      ( "access_paths",
        Obj
          (List.map (fun (k, p) -> (k, Str p)) r.Exec_result.access_paths) );
      ( "join_algos",
        Obj (List.map (fun (k, a) -> (k, Str a)) r.Exec_result.join_algos) );
      ( "cache",
        Str (Exec_result.cache_outcome_to_string r.Exec_result.cache) );
      ( "txn",
        Obj
          [
            ("commits", Int r.Exec_result.txn.Exec_result.commits);
            ("conflicts", Int r.Exec_result.txn.Exec_result.conflicts);
            ("wal_appends", Int r.Exec_result.txn.Exec_result.wal_appends);
            ("wal_fsyncs", Int r.Exec_result.txn.Exec_result.wal_fsyncs);
          ] );
    ]

let to_json ~database ~scale db q a =
  let open Obs.Json in
  Obj
    [
      ("schema_version", Int schema_version);
      ("database", Str database);
      ("scale", Int scale);
      ("query", Str (Fmt.str "%a" Calculus.pp_query q));
      ("strategy", Str (Strategy.to_string a.a_strategy));
      ( "result_cardinality",
        Int (Relation.cardinality a.a_report.Exec_result.result) );
      ( "totals",
        Obj
          [
            ("wall_ms", Float a.a_root.Obs.Trace.sp_elapsed_ms);
            ("scans", Int a.a_report.Exec_result.scans);
            ("probes", Int a.a_report.Exec_result.probes);
            ("max_ntuple", Int a.a_report.Exec_result.max_ntuple);
            ("pool", pool_stats_json db);
          ] );
      ("exec", exec_json a.a_report);
      ("phases", List (List.map phase_row_json a.a_rows));
      ( "intermediates",
        Obj
          (List.map
             (fun (k, n) -> (k, Int n))
             a.a_report.Exec_result.intermediates) );
      ("combination", combination_json ());
      ("parallel", parallel_json a);
      ("faults", faults_json ());
      ("plan_cache", plan_cache_json a);
      ( "stats",
        Obj
          [
            ("queries", Obs.Query_stats.to_json ());
          ] );
      ("flight_recorder", Obs.Flight_recorder.to_json ~n:16 ());
      ("plan", Str (Explain.explain_plan a.a_report.Exec_result.plan));
      ("trace", Obs.Trace.to_json a.a_root);
    ]
