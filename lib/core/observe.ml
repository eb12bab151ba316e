(* Observability glue around one query execution.

   [run] opens a counter window and a wall clock, hands the execution
   body a phase clock for the collection / combination / construction
   split, and on completion folds the execution into the cumulative
   {!Obs.Query_stats} registry and the always-on
   {!Obs.Flight_recorder} ring.  Cache hits and replans are read as
   plan_cache.* counter deltas over the window, which is why Session's
   one-shot paths open the window *before* prepare: a cold one-shot's
   miss-then-add-then-hit sequence must read as a replan, not a hit.

   Slow-query capture also lives here: when the digest was armed by a
   previous over-threshold execution (and no trace is already running),
   the whole body runs under {!Obs.Trace.collect} and the finished span
   is stored with the flight recorder, disarming the digest. *)

type phase = Collection | Combination | Construction

type clock = {
  time : 'a. phase -> (unit -> 'a) -> 'a;
  elapsed : phase -> float;
      (* accumulated milliseconds of a phase so far: how the execution
         body reads its own phase split back into an Exec_result *)
}

type window = {
  w_hits : int;
  w_misses : int;
  w_invalidations : int;
  w_regrounds : int;
  w_scans : int;
  w_probes : int;
  w_index_probes : int;
  w_pool_fetches : int;
  w_txn_commits : int;
  w_txn_conflicts : int;
  w_wal_appends : int;
  w_wal_fsyncs : int;
}

let counters () =
  let c = Obs.Metrics.counter_value in
  {
    w_hits = c "plan_cache.hits";
    w_misses = c "plan_cache.misses";
    w_invalidations = c "plan_cache.invalidations";
    w_regrounds = c "plan_cache.regrounds";
    w_scans = c "relation.scans";
    w_probes = c "relation.probes";
    w_index_probes = c "index.probes";
    w_pool_fetches = c "pool.fetches";
    w_txn_commits = c "txn.commits";
    w_txn_conflicts = c "txn.conflicts";
    w_wal_appends = c "wal.appends";
    w_wal_fsyncs = c "wal.fsyncs";
  }

let window = counters

(* The plan-cache outcome of an execution is the most specific event in
   its counter window: a reground follows the lookup of the plan it
   replaces, and an invalidation stands for a re-plan, so precedence is
   reground > invalidated > miss > hit. *)
let cache_outcome ~since now =
  if now.w_regrounds > since.w_regrounds then Exec_result.Reground
  else if now.w_invalidations > since.w_invalidations then
    Exec_result.Invalidated
  else if now.w_misses > since.w_misses then Exec_result.Miss
  else Exec_result.Hit

let txn_stats ~since now =
  {
    Exec_result.commits = now.w_txn_commits - since.w_txn_commits;
    conflicts = now.w_txn_conflicts - since.w_txn_conflicts;
    wal_appends = now.w_wal_appends - since.w_wal_appends;
    wal_fsyncs = now.w_wal_fsyncs - since.w_wal_fsyncs;
  }

(* Relation scans and key probes between the snapshots.  The counters
   live in this domain's own registry, so the counts are the
   execution's alone even while other domains read the same
   relations. *)
let scans_probes ~since now =
  (now.w_scans - since.w_scans, now.w_probes - since.w_probes)

let run_lazy ~digest ~text_of ~opts ~rows_of f =
  let go () =
    let before = counters () in
    let t0 = Obs.Trace.now_ms () in
    let coll_ms = ref 0.0 and comb_ms = ref 0.0 and cons_ms = ref 0.0 in
    let time phase g =
      let acc =
        match phase with
        | Collection -> coll_ms
        | Combination -> comb_ms
        | Construction -> cons_ms
      in
      let s = Obs.Trace.now_ms () in
      Fun.protect
        ~finally:(fun () -> acc := !acc +. (Obs.Trace.now_ms () -. s))
        g
    in
    let elapsed = function
      | Collection -> !coll_ms
      | Combination -> !comb_ms
      | Construction -> !cons_ms
    in
    let result = f { time; elapsed } in
    let wall_ms = Obs.Trace.now_ms () -. t0 in
    let after = counters () in
    let d get = get after - get before in
    let replans =
      d (fun w -> w.w_misses)
      + d (fun w -> w.w_invalidations)
      + d (fun w -> w.w_regrounds)
    in
    let fingerprint = Exec_opts.fingerprint opts in
    (* The text is kept only by the entry's first execution. *)
    let first = Option.is_none (Obs.Query_stats.find digest) in
    let text = if first then text_of () else "" in
    Obs.Query_stats.record ~digest ~query:text ~opts:fingerprint ~wall_ms
      ~collection_ms:!coll_ms ~combination_ms:!comb_ms
      ~construction_ms:!cons_ms ~rows:(rows_of result)
      ~cache_hit:(d (fun w -> w.w_hits) > 0 && replans = 0)
      ~replans;
    Obs.Flight_recorder.record
      {
        Obs.Flight_recorder.fr_digest = digest;
        fr_opts = fingerprint;
        fr_wall_ms = wall_ms;
        fr_collection_ms = !coll_ms;
        fr_combination_ms = !comb_ms;
        fr_construction_ms = !cons_ms;
        fr_rows = rows_of result;
        fr_jobs = opts.Exec_opts.jobs;
        fr_scans = d (fun w -> w.w_scans);
        fr_probes = d (fun w -> w.w_probes);
        fr_index_probes = d (fun w -> w.w_index_probes);
        fr_pool_fetches = d (fun w -> w.w_pool_fetches);
      };
    Obs.Flight_recorder.note_slow digest wall_ms;
    result
  in
  if Obs.Flight_recorder.armed digest && not (Obs.Trace.enabled ()) then begin
    let result, span =
      Obs.Trace.collect "query"
        ~attrs:[ ("digest", Obs.Json.Str digest) ]
        go
    in
    Obs.Flight_recorder.capture digest span;
    result
  end
  else go ()

let run ~digest ~text = run_lazy ~digest ~text_of:(fun () -> text)
