(* Benchmark harness: regenerates every experiment of DESIGN.md
   (Section 4, "Experiment index").  The paper (SIGMOD 1982) reports no
   measured tables — its evaluation is the worked Examples 2.1-4.7 — so
   each experiment materializes one of the paper's qualitative claims as
   a measured table: who wins, by what factor, and where the effect
   comes from (scans, intermediate sizes, value-list storage).

     dune exec bench/main.exe [-- --only B-SCALE,B-DIV --max-scale 2 --out F]

   --only LIST     run only the named experiments (comma-separated ids)
   --max-scale N   skip scale points above N in the scale-parametric
                   experiments (B-SCALE, B-DIV, B-ORDER; B-WRITE's
                   scale is its relation size) — the CI regression
                   gate runs at scale <= 2
   --out FILE      where to write the machine-readable results *)

open Relalg
open Pascalr

(* One-shot autocommit through a throwaway session: the migration shim
   for call sites that evaluate a query against a bare database. *)
let exec_q ?opts db q = Session.exec ?opts (Session.create db) q
let exec_q_report ?opts db q = Session.exec_report ?opts (Session.create db) q


let only : string list option ref = ref None
let max_scale : int option ref = ref None
let out_path = ref "BENCH_results.json"

let scales l =
  match !max_scale with None -> l | Some m -> List.filter (fun s -> s <= m) l

let section id title =
  Fmt.pr "@.============================================================@.";
  Fmt.pr "%s — %s@." id title;
  Fmt.pr "============================================================@."

(* Wall-clock timing; result of [f] is returned alongside milliseconds. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

(* Relation scans and key probes [f] performs: deltas of this domain's
   metrics, which count every scan and probe where it happens. *)
let counted f =
  let c = Obs.Metrics.counter_value in
  let scans0 = c "relation.scans" and probes0 = c "relation.probes" in
  let r = f () in
  (r, c "relation.scans" - scans0, c "relation.probes" - probes0)

(* Per database relation, the scans [f] performs: the paper's S1
   counts, as [relation.scans.<name>] deltas. *)
let scans_by_relation db f =
  let counts () =
    List.map
      (fun n -> (n, Obs.Metrics.counter_value ("relation.scans." ^ n)))
      (Database.relation_names db)
  in
  let before = counts () in
  ignore (f ());
  List.map2 (fun (n, a) (_, b) -> (n, b - a)) before (counts ())

let time_median ?(repeat = 3) f =
  let times = List.init repeat (fun _ -> snd (time f)) in
  match List.sort compare times with
  | [] -> 0.0
  | ts -> List.nth ts (List.length ts / 2)

(* Nearest-rank order statistic of an ascending sample: the smallest
   sample with at least a fraction [p] of the samples at or below it.
   (The epsilon keeps 0.95 *. 20. from rounding up a rank.) *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (ceil ((p *. float_of_int n) -. 1e-9)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* Repeat [f], keeping each pass's wall time.  Returns [f]'s first
   result, the median (the wall_ms figure every comparison — including
   the regression guard's prepared-vs-cold check — is made on), and the
   nearest-rank (p50, p95, p99) of the raw pass times — [None] when
   there is only one sample: a single pass has no tail, and duplicating
   its time into p95/p99 would hand the regression gate a percentile
   that was never measured. *)
let summarize times =
  let sorted = Array.of_list (List.sort compare times) in
  let median = sorted.(Array.length sorted / 2) in
  let percentiles =
    if Array.length sorted < 2 then None
    else
      Some
        ( nearest_rank sorted 0.5,
          nearest_rank sorted 0.95,
          nearest_rank sorted 0.99 )
  in
  (median, percentiles)

let time_percentiles ?(repeat = 3) f =
  let r0, ms0 = time f in
  let times = ms0 :: List.init (repeat - 1) (fun _ -> snd (time f)) in
  let median, percentiles = summarize times in
  (r0, median, percentiles)

(* ------------------------------------------------------------------ *)
(* Machine-readable results.  Selected experiments record one row per
   measured cell; everything accumulated here is written to
   BENCH_results.json when the harness finishes, so runs can be diffed
   or plotted without scraping the printed tables. *)

let results : Obs.Json.t list ref = ref []

let record ~experiment ~query ~strategy ~scale ~wall_ms ~scans ~probes
    ~max_ntuple ?pool_hit_rate ?percentiles ?(extra = []) () =
  let open Obs.Json in
  results :=
    Obj
      ([
         ("experiment", Str experiment);
         ("query", Str query);
         ("strategy", Str strategy);
         ("scale", Int scale);
         ("wall_ms", Float wall_ms);
         ("scans", Int scans);
         ("probes", Int probes);
         ("max_ntuple", Int max_ntuple);
         ( "pool_hit_rate",
           match pool_hit_rate with Some r -> Float r | None -> Null );
       ]
      @ (match percentiles with
        | None -> []
        | Some (p50, p95, p99) ->
          [
            ("wall_ms_p50", Float p50);
            ("wall_ms_p95", Float p95);
            ("wall_ms_p99", Float p99);
          ])
      @ extra)
    :: !results

let write_results path =
  let doc =
    Obs.Json.Obj
      [
        ("harness", Obs.Json.Str "pascalr-bench");
        ("results", Obs.Json.List (List.rev !results));
      ]
  in
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  Fmt.pf ppf "%a@." Obs.Json.pp_pretty doc;
  close_out oc

(* University database scaled so the unoptimized combination phase stays
   tractable at the largest scale it is asked to run. *)
let uni_params s =
  {
    Workload.University.default_params with
    Workload.University.n_employees = 10 * s;
    n_papers = 15 * s;
    n_courses = 6 * s;
    n_timetable = 20 * s;
    seed = 42 + s;
  }

let strategies =
  [
    ("palermo", Strategy.palermo);
    ("s1", Strategy.s1);
    ("s1+s2", Strategy.s12);
    ("s1+s2+s3", Strategy.s123);
    ("s1+s2+s3+s4", Strategy.s1234);
  ]

let sum_sizes_with_prefix prefix intermediates =
  List.fold_left
    (fun acc (key, size) ->
      if String.length key >= String.length prefix
         && String.sub key 0 (String.length prefix) = prefix
      then acc + size
      else acc)
    0 intermediates

(* ------------------------------------------------------------------ *)
(* B-SCALE: the headline — all strategies vs. naive across database
   scale on the running query (Example 2.1). *)

let bench_scale () =
  section "B-SCALE" "running query: all strategies across scale";
  Fmt.pr
    "(the paper's cost model is relation READS: the scans columns; wall@.";
  Fmt.pr " time of the in-memory substrate is reported alongside)@.";
  Fmt.pr "%-6s %-6s | %10s %8s | %10s %10s %10s %10s %10s | %8s@." "scale"
    "|emp|" "naive(ms)" "scans" "palermo" "s1" "s1+2" "s1+2+3" "s1+2+3+4"
    "scans4";
  let max_palermo_scale = 2 in
  List.iter
    (fun s ->
      let db = Workload.University.generate (uni_params s) in
      let q = Workload.Queries.running_query db in
      (* Page the relations through a buffer pool so every row carries a
         real hit rate (the pool is generous: the effect measured here
         is strategy wall time, not pool thrash — that is B-PAGE). *)
      let pool = Database.attach_storage db ~pool_pages:64 in
      let hit_rate () = Buffer_pool.hit_rate (Buffer_pool.stats pool) in
      Buffer_pool.reset_stats pool;
      let naive_ms, naive_scans, naive_probes =
        counted (fun () -> time_median ~repeat:1 (fun () -> Naive_eval.run db q))
      in
      record ~experiment:"B-SCALE" ~query:"running" ~strategy:"naive" ~scale:s
        ~wall_ms:naive_ms ~scans:naive_scans ~probes:naive_probes ~max_ntuple:0
        ~pool_hit_rate:(hit_rate ()) ();
      let cell (sname, st) =
        let feasible =
          s <= max_palermo_scale
          || (st.Strategy.range_extension && s <= 4)
          || st.Strategy.quantifier_push
        in
        if feasible then begin
          (* Zeroed per pass, so the hit rate is the last pass's. *)
          let report, ms, percentiles =
            time_percentiles (fun () ->
                Buffer_pool.reset_stats pool;
                exec_q_report ~opts:(Exec_opts.make ~strategy:st ()) db q)
          in
          record ~experiment:"B-SCALE" ~query:"running" ~strategy:sname
            ~scale:s ~wall_ms:ms ~scans:report.Exec_result.scans
            ~probes:report.Exec_result.probes
            ~max_ntuple:report.Exec_result.max_ntuple
            ~pool_hit_rate:(hit_rate ()) ?percentiles ();
          Some (ms, report.Exec_result.scans)
        end
        else None
      in
      let cells = List.map cell strategies in
      (* s1234 is the last strategy and always feasible; its scans
         figure was just measured in the loop — reuse it instead of
         running the query a second time. *)
      let full_scans =
        match List.rev cells with
        | Some (_, scans) :: _ -> scans
        | _ -> 0
      in
      Fmt.pr "%-6d %-6d | %10.2f %8d |" s
        (Relation.cardinality (Database.find_relation db "employees"))
        naive_ms naive_scans;
      List.iter
        (function
          | Some (ms, _) -> Fmt.pr " %10.2f" ms
          | None -> Fmt.pr " %10s" "-")
        cells;
      Fmt.pr " | %8d@." full_scans)
    (scales [ 1; 2; 4; 8 ]);
  Fmt.pr "(palermo/s1/s1+2 omitted beyond scale %d: their padded n-tuple@." 2;
  Fmt.pr " products grow with the full Cartesian volume)@."

(* ------------------------------------------------------------------ *)
(* B-S1: strategy 1's claim — "each range relation is read no more than
   once".  Scan counts per database relation, Palermo vs S1. *)

let bench_s1 () =
  section "B-S1" "scan counts per relation (Example 4.3)";
  let db = Workload.University.generate (uni_params 2) in
  Fmt.pr "%-12s | %-12s | %8s %8s@." "query" "relation" "palermo" "s1";
  List.iter
    (fun (qname, q) ->
      let counts strategy =
        scans_by_relation db (fun () ->
            exec_q_report ~opts:(Exec_opts.make ~strategy ()) db q)
      in
      let palermo = counts Strategy.palermo in
      let s1 = counts Strategy.s1 in
      List.iter
        (fun (rel, c_palermo) ->
          let c_s1 = List.assoc rel s1 in
          if c_palermo > 0 || c_s1 > 0 then
            Fmt.pr "%-12s | %-12s | %8d %8d@." qname rel c_palermo c_s1)
        palermo)
    [
      ("running", Workload.Queries.running_query db);
      ("existential", Workload.Queries.existential_query db);
      ("universal", Workload.Queries.universal_query db);
    ]

(* ------------------------------------------------------------------ *)
(* B-S2: monadic terms restrict indirect joins while reading the
   relation (Example 4.2): total indirect-join entries with and without
   the restriction. *)

let bench_s2 () =
  section "B-S2" "indirect join sizes, unrestricted vs monadically restricted";
  Fmt.pr "%-6s | %14s %16s | %12s@." "scale" "ij entries(s1)"
    "ij entries(s1+2)" "reduction";
  List.iter
    (fun s ->
      let db = Workload.University.generate (uni_params s) in
      let q = Workload.Queries.running_query db in
      let pair_volume strategy =
        let report = exec_q_report ~opts:(Exec_opts.make ~strategy ()) db q in
        sum_sizes_with_prefix "pair:" report.Exec_result.intermediates
      in
      let unrestricted = pair_volume Strategy.s1 in
      let restricted = pair_volume Strategy.s12 in
      Fmt.pr "%-6d | %14d %16d | %11.1f%%@." s unrestricted restricted
        (100.0
        *. (1.0 -. (float_of_int restricted /. float_of_int (max 1 unrestricted)))))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* B-S3: extended range expressions (Example 4.5): conjunction count,
   combination volume and time across the professor selectivity. *)

let bench_s3 () =
  section "B-S3" "range extension vs selectivity of estatus=professor";
  Fmt.pr "%-6s | %6s %6s | %12s %12s | %10s %10s@." "prof%" "conj" "conj3"
    "max-ntuple" "max-ntuple3" "ms(s1+2)" "ms(s1+2+3)";
  List.iter
    (fun prob ->
      let params =
        { (uni_params 2) with Workload.University.prob_professor = prob }
      in
      let db = Workload.University.generate params in
      let q = Workload.Queries.running_query db in
      let report2 = exec_q_report ~opts:(Exec_opts.make ~strategy:Strategy.s12 ()) db q in
      let ms2 =
        time_median ~repeat:1 (fun () -> exec_q ~opts:(Exec_opts.make ~strategy:Strategy.s12 ()) db q)
      in
      let report3 = exec_q_report ~opts:(Exec_opts.make ~strategy:Strategy.s123 ()) db q in
      let ms3 =
        time_median ~repeat:1 (fun () ->
            exec_q ~opts:(Exec_opts.make ~strategy:Strategy.s123 ()) db q)
      in
      Fmt.pr "%-6.0f | %6d %6d | %12d %12d | %10.2f %10.2f@." (100.0 *. prob)
        (List.length report2.Exec_result.plan.Plan.conjs)
        (List.length report3.Exec_result.plan.Plan.conjs)
        report2.Exec_result.max_ntuple report3.Exec_result.max_ntuple ms2 ms3)
    [ 0.1; 0.3; 0.5; 0.7; 0.9 ]

(* ------------------------------------------------------------------ *)
(* B-S4: quantifier evaluation in the collection phase (Example 4.7):
   the combination phase's n-tuple volume collapses. *)

let bench_s4 () =
  section "B-S4" "quantifier pushing (Example 4.7): combination collapse";
  Fmt.pr "%-6s | %8s %8s | %12s %12s | %10s %10s@." "scale" "prefix3"
    "prefix4" "max-ntuple3" "max-ntuple4" "ms(s123)" "ms(s1234)";
  List.iter
    (fun s ->
      let db = Workload.University.generate (uni_params s) in
      let q = Workload.Queries.running_query db in
      let r3 = exec_q_report ~opts:(Exec_opts.make ~strategy:Strategy.s123 ()) db q in
      let ms3 =
        if s <= 4 then
          Fmt.str "%10.2f"
            (time_median ~repeat:1 (fun () ->
                 exec_q ~opts:(Exec_opts.make ~strategy:Strategy.s123 ()) db q))
        else Fmt.str "%10s" "-"
      in
      let r4 = exec_q_report ~opts:(Exec_opts.make ~strategy:Strategy.s1234 ()) db q in
      let ms4 =
        time_median (fun () -> exec_q ~opts:(Exec_opts.make ~strategy:Strategy.s1234 ()) db q)
      in
      Fmt.pr "%-6d | %8d %8d | %12d %12d | %s %10.2f@." s
        (List.length r3.Exec_result.plan.Plan.prefix)
        (List.length r4.Exec_result.plan.Plan.prefix)
        r3.Exec_result.max_ntuple r4.Exec_result.max_ntuple ms3 ms4)
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* B-MM: the < <= > >= special case — only min/max of the value list is
   stored (Section 4.4). *)

let bench_minmax () =
  section "B-MM" "order-comparison value lists store only min/max";
  Fmt.pr "%-14s | %10s | %12s %12s | %10s@." "query" "|papers|" "full-list"
    "stored" "ms(s1234)";
  List.iter
    (fun s ->
      let db = Workload.University.generate (uni_params s) in
      List.iter
        (fun (qname, q) ->
          let report = exec_q_report ~opts:(Exec_opts.make ~strategy:Strategy.s1234 ()) db q in
          let stored =
            sum_sizes_with_prefix "vlist:" report.Exec_result.intermediates
          in
          let papers = Database.find_relation db "papers" in
          let full =
            Value_list.stored_size (Value_list.of_column papers "penr")
          in
          let ms =
            time_median (fun () ->
                exec_q ~opts:(Exec_opts.make ~strategy:Strategy.s1234 ()) db q)
          in
          Fmt.pr "%-14s | %10d | %12d %12d | %10.3f@." qname
            (Relation.cardinality papers)
            full stored ms)
        [
          ("minmax some", Workload.Queries.minmax_some_query db);
          ("minmax all", Workload.Queries.minmax_all_query db);
        ])
    [ 2; 8 ]

(* ------------------------------------------------------------------ *)
(* B-EQ: ALL-with-= and SOME-with-<> store at most one value. *)

let bench_eq_ne () =
  section "B-EQ" "ALL-= / SOME-<> value lists store at most one value";
  Fmt.pr "%-14s | %10s | %12s | %8s@." "query" "|papers|" "stored" "answer";
  let db = Workload.University.generate (uni_params 4) in
  List.iter
    (fun (qname, q) ->
      let report = exec_q_report ~opts:(Exec_opts.make ~strategy:Strategy.s1234 ()) db q in
      let stored =
        sum_sizes_with_prefix "vlist:" report.Exec_result.intermediates
      in
      Fmt.pr "%-14s | %10d | %12d | %8d@." qname
        (Relation.cardinality (Database.find_relation db "papers"))
        stored
        (Relation.cardinality report.Exec_result.result))
    [
      ("all eq", Workload.Queries.all_eq_query db);
      ("some ne", Workload.Queries.some_ne_query db);
    ]

(* ------------------------------------------------------------------ *)
(* B-EMPTY: runtime adaptation of the standard form (Example 2.2).
   Cold legs plan against a populated and an emptied papers relation,
   each in a fresh session.  The warm leg runs one session through
   papers populated, cleared and refilled: its cached plan must be
   re-planned on each flip, so every leg agrees with the naive
   evaluator (the regression script fails on any disagreement). *)

let bench_empty () =
  section "B-EMPTY" "empty-range adaptation: correctness and overhead";
  Fmt.pr "%-16s | %10s %12s %12s | %12s %12s@." "papers" "answer"
    "agree-naive" "plan cache" "ms(s1234)" "ms(naive)";
  let opts = Exec_opts.make ~strategy:Strategy.s1234 () in
  let leg name db session =
    let q = Workload.Queries.running_query db in
    let naive, naive_ms = time (fun () -> Naive_eval.run db q) in
    let report, ms = time (fun () -> Session.exec_report ~opts session q) in
    let agrees = Relation.equal_set report.Exec_result.result naive in
    let cache = Exec_result.cache_outcome_to_string report.Exec_result.cache in
    record ~experiment:"B-EMPTY" ~query:"running" ~strategy:"s1+s2+s3+s4"
      ~scale:4 ~wall_ms:ms ~scans:report.Exec_result.scans
      ~probes:report.Exec_result.probes
      ~max_ntuple:report.Exec_result.max_ntuple
      ~extra:
        [
          ("leg", Obs.Json.Str name);
          ("agrees_naive", Obs.Json.Bool agrees);
          ("rows", Obs.Json.Int report.Exec_result.rows);
          ("cache", Obs.Json.Str cache);
          ("naive_ms", Obs.Json.Float naive_ms);
        ]
      ();
    Fmt.pr "%-16s | %10d %12b %12s | %12.2f %12.2f@." name
      report.Exec_result.rows agrees cache ms naive_ms
  in
  let fresh () = Workload.University.generate (uni_params 4) in
  let papers db = Database.find_relation db "papers" in
  let db = fresh () in
  leg "populated" db (Session.create db);
  let db = fresh () in
  Relation.clear (papers db);
  leg "empty" db (Session.create db);
  let db = fresh () in
  let session = Session.create db in
  let saved = Relation.to_list (papers db) in
  leg "warm populated" db session;
  Relation.clear (papers db);
  leg "warm cleared" db session;
  Relation.insert_list (papers db) saved;
  leg "warm refilled" db session

(* ------------------------------------------------------------------ *)
(* B-DIV: universal quantification on suppliers-parts — division in the
   combination phase vs the transformed evaluation. *)

let bench_division () =
  section "B-DIV" "division queries (suppliers-parts)";
  Fmt.pr "%-6s | %-20s | %10s %10s %10s %10s@." "scale" "query" "naive"
    "palermo" "s1+2+3" "s1+2+3+4";
  List.iter
    (fun s ->
      let db =
        Workload.Suppliers.generate (Workload.Suppliers.scaled ~seed:(7 + s) s)
      in
      List.iter
        (fun (qname, q) ->
          let naive_ms, scans, probes =
            counted (fun () ->
                time_median ~repeat:1 (fun () -> Naive_eval.run db q))
          in
          record ~experiment:"B-DIV" ~query:qname ~strategy:"naive" ~scale:s
            ~wall_ms:naive_ms ~scans ~probes ~max_ntuple:0 ();
          let run sname st =
            let report, ms, percentiles =
              time_percentiles (fun () ->
                  exec_q_report ~opts:(Exec_opts.make ~strategy:st ()) db q)
            in
            record ~experiment:"B-DIV" ~query:qname ~strategy:sname ~scale:s
              ~wall_ms:ms ~scans:report.Exec_result.scans
              ~probes:report.Exec_result.probes
              ~max_ntuple:report.Exec_result.max_ntuple ?percentiles ();
            ms
          in
          let palermo =
            if s <= 2 then Fmt.str "%10.2f" (run "palermo" Strategy.palermo)
            else Fmt.str "%10s" "-"
          in
          Fmt.pr "%-6d | %-20s | %10.2f %s %10.2f %10.2f@." s qname naive_ms
            palermo
            (run "s1+s2+s3" Strategy.s123)
            (run "s1+s2+s3+s4" Strategy.s1234))
        [
          ("ships all parts", Workload.Suppliers.ships_all_parts db);
          ("ships all red", Workload.Suppliers.ships_all_red_parts db);
          ("no red part", Workload.Suppliers.ships_no_red_part db);
        ])
    (scales [ 1; 2; 4 ])

(* ------------------------------------------------------------------ *)
(* B-ORDER: the streaming combination engine (cost-ordered joins, eager
   quantifier elimination) against the declaration-order baseline that
   pads every conjunction to the full variable order.  Same plans, same
   collection structures — the gap is pure combination-phase execution,
   visible in the intermediate volume (max_ntuple) and the join traffic
   through the engine. *)

let bench_order () =
  section "B-ORDER" "cost-ordered streaming combination vs declaration order";
  Fmt.pr "%-14s %-6s %-12s | %10s %12s %12s %12s@." "query" "scale" "engine"
    "wall_ms" "max_ntuple" "join_in" "join_out";
  let engines =
    [ ("ordered", Combination.Cost_ordered); ("declaration", Combination.Declaration) ]
  in
  let case qname scale strategy db q =
    let pool = Database.attach_storage db ~pool_pages:64 in
    List.iter
      (fun (ename, join_order) ->
        let repeat = 3 in
        let in0 = Obs.Metrics.counter_value "combination.join_rows_in" in
        let out0 = Obs.Metrics.counter_value "combination.join_rows_out" in
        let report, ms, percentiles =
          time_percentiles ~repeat (fun () ->
              (* Zeroed per pass, so the hit rate is the last pass's. *)
              Buffer_pool.reset_stats pool;
              exec_q_report
                ~opts:(Exec_opts.make ~strategy ~join_order ())
                db q)
        in
        (* The deterministic evaluation repeats identically, so the
           per-execution join traffic is the delta over all passes
           divided by the pass count. *)
        let join_in =
          (Obs.Metrics.counter_value "combination.join_rows_in" - in0)
          / repeat
        in
        let join_out =
          (Obs.Metrics.counter_value "combination.join_rows_out" - out0)
          / repeat
        in
        record ~experiment:"B-ORDER" ~query:qname ~strategy:ename ~scale
          ~wall_ms:ms ~scans:report.Exec_result.scans
          ~probes:report.Exec_result.probes
          ~max_ntuple:report.Exec_result.max_ntuple
          ~pool_hit_rate:(Buffer_pool.hit_rate (Buffer_pool.stats pool))
          ?percentiles
          ~extra:
            [
              ("join_rows_in", Obs.Json.Int join_in);
              ("join_rows_out", Obs.Json.Int join_out);
            ]
          ();
        Fmt.pr "%-14s %-6d %-12s | %10.2f %12d %12d %12d@." qname scale ename
          ms report.Exec_result.max_ntuple join_in join_out)
      engines
  in
  List.iter
    (fun s ->
      let db = Workload.University.generate (uni_params s) in
      case "running" s Strategy.s12 db (Workload.Queries.running_query db))
    (scales [ 1; 2 ]);
  List.iter
    (fun s ->
      let db =
        Workload.Suppliers.generate (Workload.Suppliers.scaled ~seed:(7 + s) s)
      in
      case "no red part" s Strategy.s123 db
        (Workload.Suppliers.ships_no_red_part db))
    (scales [ 2; 4 ])

(* ------------------------------------------------------------------ *)
(* B-PAGE: the 1982 cost model made real — page reads through a buffer
   pool over the paged storage substrate.  The naive evaluator's
   repeated scans thrash a small pool; the collected evaluation reads
   each relation once. *)

let bench_page_io () =
  section "B-PAGE" "page I/O through the buffer pool (running query, scale 2)";
  Fmt.pr "%-12s | %13s %8s | %14s %8s@." "evaluator" "reads(pool 4)"
    "fetches" "reads(pool 32)" "fetches";
  let run_with pool_pages name eval =
    let db = Workload.University.generate (uni_params 2) in
    let q = Workload.Queries.running_query db in
    let pool = Database.attach_storage db ~pool_pages in
    Buffer_pool.reset_stats pool;
    let (_, ms), scans, probes = counted (fun () -> time (fun () -> eval db q)) in
    let s = Buffer_pool.stats pool in
    record ~experiment:"B-PAGE" ~query:"running" ~strategy:name ~scale:2
      ~wall_ms:ms ~scans ~probes ~max_ntuple:0
      ~pool_hit_rate:(Buffer_pool.hit_rate s)
      ~extra:
        [
          ("pool_pages", Obs.Json.Int pool_pages);
          ("page_reads", Obs.Json.Int s.Buffer_pool.misses);
        ]
      ();
    (s.Buffer_pool.misses, s.Buffer_pool.fetches)
  in
  let row name eval =
    let m4, f4 = run_with 4 name eval in
    let m32, f32 = run_with 32 name eval in
    Fmt.pr "%-12s | %13d %8d | %14d %8d@." name m4 f4 m32 f32
  in
  row "naive" (fun db q -> ignore (Naive_eval.run db q));
  List.iter
    (fun (name, st) ->
      row name (fun db q -> ignore (exec_q ~opts:(Exec_opts.make ~strategy:st ()) db q)))
    strategies;
  (* The gap widens with scale: naive re-reads relations per enclosing
     binding. *)
  Fmt.pr "@.scale 8, pool 6 pages (database ~16 pages):@.";
  let run4 eval =
    let db = Workload.University.generate (uni_params 8) in
    let q = Workload.Queries.running_query db in
    let pool = Database.attach_storage db ~pool_pages:6 in
    eval db q;
    (Buffer_pool.stats pool).Buffer_pool.misses
  in
  Fmt.pr "%-12s | %8d page reads@." "naive"
    (run4 (fun db q -> ignore (Naive_eval.run db q)));
  Fmt.pr "%-12s | %8d page reads@." "s1+s2+s3+s4"
    (run4 (fun db q ->
         ignore (exec_q ~opts:(Exec_opts.make ~strategy:Strategy.s1234 ()) db q)))

(* ------------------------------------------------------------------ *)
(* B-IDX: permanent indexes (Section 3.2: "The first step can be
   omitted, if permanent indexes exist").  Declared secondary indexes
   play the permanent ones; the counts are deterministic, and the
   regression guard holds them to the committed baseline exactly. *)

let bench_omitted_index_scans () =
  section "B-IDX" "permanent indexes omit index-building scans";
  Fmt.pr "(indexes declared: timetable.tcnr, timetable.tenr, papers.penr)@.";
  Fmt.pr "%-12s | %-8s | %8s %8s@." "query" "strategy" "scans" "scans+ix";
  let scale = 4 in
  List.iter
    (fun (qname, make_q) ->
      List.iter
        (fun (sname, strategy) ->
          let db = Workload.University.generate (uni_params scale) in
          let q = make_q db in
          let opts = Exec_opts.make ~strategy ~use_index:true () in
          let r0 = exec_q_report ~opts db q in
          List.iter
            (fun (rel, attr) ->
              ignore (Database.declare_index db rel ~on:[ attr ] : Secondary_index.t))
            [ ("timetable", "tcnr"); ("timetable", "tenr"); ("papers", "penr") ];
          let r1, wall_ms = time (fun () -> exec_q_report ~opts db q) in
          record ~experiment:"B-IDX" ~query:qname ~strategy:sname ~scale
            ~wall_ms ~scans:r0.Exec_result.scans
            ~probes:r1.Exec_result.probes ~max_ntuple:r1.Exec_result.max_ntuple
            ~extra:[ ("scans_ix", Obs.Json.Int r1.Exec_result.scans) ]
            ();
          Fmt.pr "%-12s | %-8s | %8d %8d@." qname sname r0.Exec_result.scans
            r1.Exec_result.scans)
        [ ("palermo", Strategy.palermo); ("s1+2", Strategy.s12) ])
    [
      ("existential", Workload.Queries.existential_query);
      ("universal", Workload.Queries.universal_query);
    ]

(* ------------------------------------------------------------------ *)
(* B-CNF: range extensions in conjunctive normal form (Section 4.3's
   future-work remark) on a query whose ALL variable carries a
   two-atom pure-monadic conjunction. *)

let cnf_query db =
  ignore db;
  let open Calculus in
  {
    free = [ ("e", base "employees") ];
    select = [ ("e", "enr") ];
    body =
      f_all "p" (base "papers")
        (f_or
           (f_and
              (ne (attr "p" "pyear") (cint 1977))
              (gt (attr "p" "penr") (cint 5)))
           (eq (attr "p" "penr") (attr "e" "enr")));
  }

let bench_cnf () =
  section "B-CNF" "CNF range extensions: conjunction count and volume";
  Fmt.pr "%-6s | %6s %6s | %12s %12s | %10s %10s@." "scale" "conj" "conjC"
    "max-ntuple" "max-ntupleC" "ms(s123)" "ms(s123c)";
  List.iter
    (fun s ->
      let db = Workload.University.generate (uni_params s) in
      let q = cnf_query db in
      let r3 = exec_q_report ~opts:(Exec_opts.make ~strategy:Strategy.s123 ()) db q in
      let ms3 =
        time_median ~repeat:1 (fun () ->
            exec_q ~opts:(Exec_opts.make ~strategy:Strategy.s123 ()) db q)
      in
      let rc = exec_q_report ~opts:(Exec_opts.make ~strategy:Strategy.s123c ()) db q in
      let msc =
        time_median ~repeat:1 (fun () ->
            exec_q ~opts:(Exec_opts.make ~strategy:Strategy.s123c ()) db q)
      in
      Fmt.pr "%-6d | %6d %6d | %12d %12d | %10.2f %10.2f@." s
        (List.length r3.Exec_result.plan.Plan.conjs)
        (List.length rc.Exec_result.plan.Plan.conjs)
        r3.Exec_result.max_ntuple rc.Exec_result.max_ntuple ms3 msc)
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* B-PAR: partitioned parallel execution across the domain pool, on the
   two largest B-ORDER scenarios.  jobs=1 is the untouched serial
   engine; higher settings fan the stream materializations' window
   chunks across (jobs - 1) pooled helper domains plus the caller.
   par_threshold is forced to 0 so every materialization fans out —
   the speedup (or, on a single hardware core, the
   overhead) of the parallel machinery itself is what is measured.
   Recorded per cell: jobs and the pool tasks the run spawned, so the
   regression guard can confirm the parallel path actually ran. *)

let bench_parallel () =
  section "B-PAR" "partitioned parallel execution: jobs 1 vs 2 vs max";
  let jobs_list =
    List.sort_uniq compare
      [ 1; 2; max 4 (Domain.recommended_domain_count ()) ]
  in
  Fmt.pr "(hardware cores: %d; par_threshold 0; median of 5 passes)@."
    (Domain.recommended_domain_count ());
  Fmt.pr "%-14s %-6s %-5s | %10s %9s %10s@." "query" "scale" "jobs" "wall_ms"
    "speedup" "par_tasks";
  let case qname scale strategy db q =
    let serial_ms = ref 0.0 in
    List.iter
      (fun jobs ->
        let opts = Exec_opts.make ~strategy ~jobs ~par_threshold:0 () in
        (* Warmup: spawn the pool workers (a one-off cost amortized
           across queries in a real process) and touch the caches. *)
        let report = exec_q_report ~opts db q in
        let t0 = Obs.Metrics.counter_value "parallel.tasks" in
        let (), ms, percentiles =
          time_percentiles ~repeat:5 (fun () ->
              ignore (exec_q ~opts db q : Relation.t))
        in
        let tasks =
          (Obs.Metrics.counter_value "parallel.tasks" - t0) / 5
        in
        if jobs = 1 then serial_ms := ms;
        record ~experiment:"B-PAR" ~query:qname
          ~strategy:(Fmt.str "jobs=%d" jobs) ~scale ~wall_ms:ms
          ~scans:report.Exec_result.scans ~probes:report.Exec_result.probes
          ~max_ntuple:report.Exec_result.max_ntuple ?percentiles
          ~extra:
            [
              ("jobs", Obs.Json.Int jobs);
              ("par_tasks", Obs.Json.Int tasks);
            ]
          ();
        Fmt.pr "%-14s %-6d %-5d | %10.2f %8.2fx %10d@." qname scale jobs ms
          (!serial_ms /. Float.max ms 0.001)
          tasks)
      jobs_list
  in
  List.iter
    (fun s ->
      let db = Workload.University.generate (uni_params s) in
      case "running" s Strategy.s12 db (Workload.Queries.running_query db))
    (scales [ 2 ]);
  List.iter
    (fun s ->
      let db =
        Workload.Suppliers.generate (Workload.Suppliers.scaled ~seed:(7 + s) s)
      in
      case "no red part" s Strategy.s123 db
        (Workload.Suppliers.ships_no_red_part db))
    (scales [ 4 ]);
  (* Join the pool workers: idle parked domains tax every later
     stop-the-world section, and nothing after B-PAR needs the pool. *)
  Domain_pool.shutdown ()

(* B-PREP: the Session plan cache — prepared re-execution vs cold
   one-shot runs.  A cold run (exec_q, one throwaway session
   per call) re-enters the whole planning pipeline every time: adapt,
   standard form, range extension, quantifier pushing.  A prepared
   query pays for planning once; each further execution costs one
   cache probe plus the collection / combination / construction phases.
   The parameterized row grounds a fresh $minqty binding per execution
   — substitution into the one cached plan, no re-planning. *)

let param_shipments_query =
  let open Calculus in
  {
    free = [ ("s", base "suppliers") ];
    select = [ ("s", "sname") ];
    body =
      f_some "h" (base "shipments")
        (f_and
           (eq (attr "h" "hsnr") (attr "s" "snr"))
           (mk_atom (attr "h" "hqty") Value.Ge (param "minqty")));
  }

let bench_prepared () =
  section "B-PREP" "prepared re-execution vs cold one-shot runs";
  let repeats = 40 in
  Fmt.pr
    "(each cell: wall ms of %d executions, median of 5 passes, cold and@."
    repeats;
  Fmt.pr " prepared passes interleaved A-B-A-B after one warmup of each; prepare@.";
  Fmt.pr " is the one-off planning cost the prepared column no longer pays)@.";
  Fmt.pr "%-22s %-6s | %10s %10s %9s | %10s | %5s %6s@." "query" "scale"
    "cold" "prepared" "speedup" "prepare" "hits" "misses";
  let case qname scale strategy db q bindings_of_i =
    let opts = Exec_opts.make ~strategy () in
    let ground i =
      match bindings_of_i with
      | None -> q
      | Some f ->
        let b =
          List.fold_left
            (fun m (k, v) -> Calculus.Var_map.add k v m)
            Calculus.Var_map.empty (f i)
        in
        Calculus.subst_query b q
    in
    (* One untimed execution of each path first: module initialisation,
       tracer setup and heap growth land on the warmup, not the race. *)
    ignore (exec_q ~opts db (ground 0) : Relation.t);
    ignore
      (Session.exec ~opts
         ?params:(Option.map (fun f -> f 0) bindings_of_i)
         (Session.create db) q
        : Relation.t);
    let session = Session.create db in
    let prep, prepare_ms = time (fun () -> Session.prepare ~opts session q) in
    let cold_pass () =
      for i = 1 to repeats do
        ignore (exec_q ~opts db (ground i) : Relation.t)
      done
    in
    let prep_pass () =
      for i = 1 to repeats do
        let params = Option.map (fun f -> f i) bindings_of_i in
        ignore (Prepared.exec ?params prep : Relation.t)
      done
    in
    (* Passes alternate cold, prepared, cold, prepared, ...: a slow
       stretch of a noisy machine lands on both sides instead of on
       whichever ran during it. *)
    let cold_times, prep_times =
      List.split
        (List.init 5 (fun _ ->
             let cold = snd (time cold_pass) in
             (cold, snd (time prep_pass))))
    in
    let cold_ms, cold_percentiles = summarize cold_times in
    let prep_ms, prep_percentiles = summarize prep_times in
    let stats = Session.cache_stats session in
    let extra =
      [
        ("repeats", Obs.Json.Int repeats);
        ("prepare_ms", Obs.Json.Float prepare_ms);
        ("cache_hits", Obs.Json.Int stats.Plan_cache.hits);
        ("cache_misses", Obs.Json.Int stats.Plan_cache.misses);
      ]
    in
    record ~experiment:"B-PREP" ~query:qname ~strategy:"cold" ~scale
      ~wall_ms:cold_ms ~scans:0 ~probes:0 ~max_ntuple:0
      ?percentiles:cold_percentiles
      ~extra:[ ("repeats", Obs.Json.Int repeats) ]
      ();
    record ~experiment:"B-PREP" ~query:qname ~strategy:"prepared" ~scale
      ~wall_ms:prep_ms ~scans:0 ~probes:0 ~max_ntuple:0
      ?percentiles:prep_percentiles ~extra ();
    Fmt.pr "%-22s %-6d | %10.2f %10.2f %8.1fx | %10.2f | %5d %6d@." qname
      scale cold_ms prep_ms
      (cold_ms /. Float.max prep_ms 0.001)
      prepare_ms stats.Plan_cache.hits stats.Plan_cache.misses
  in
  List.iter
    (fun s ->
      let db = Workload.University.generate (uni_params s) in
      case "running" s Strategy.s1234 db (Workload.Queries.running_query db)
        None)
    (scales [ 1; 2 ]);
  List.iter
    (fun s ->
      let db =
        Workload.Suppliers.generate (Workload.Suppliers.scaled ~seed:(7 + s) s)
      in
      case "ships all parts" s Strategy.s1234 db
        (Workload.Suppliers.ships_all_parts db)
        None;
      case "heavy shipments($q)" s Strategy.s1234 db param_shipments_query
        (Some (fun i -> [ ("minqty", Value.int (100 + (i * 17 mod 800))) ])))
    (scales [ 1 ])

(* ------------------------------------------------------------------ *)
(* B-INDEX: persistent secondary indexes as collection access paths.
   An equality restriction selecting ~1/1000 of shipments, executed
   prepared (the plan cache pays planning once, so the cells compare
   access paths, not planners): the "indexed" leg drives the range from
   a declared secondary index on hqty — one bucket probe per
   execution — while the "scan" leg (use_index=false) walks the whole
   heap.  Same database, same plan, identical results (the QCheck
   differential in the test suite proves it); the gap is the access
   path, and it widens linearly with the relation.

   Two order restrictions then run against the same index: a
   selective one (~0.5% of shipments), which the collection drives as a
   range scan of the index, and an unselective one (~80%), past
   [Cost.range_scan_max_fraction], whose indexed leg prices the span
   and falls back to the heap scan. *)

let shipments_where cmp v =
  let open Calculus in
  {
    free = [ ("h", base "shipments") ];
    select = [ ("h", "hsnr"); ("h", "hpnr") ];
    body = cmp (attr "h" "hqty") (cint v);
  }

let bench_index () =
  section "B-INDEX" "secondary-index probe and range scan vs heap scan";
  Fmt.pr
    "(one index on shipments.hqty for =, < and >; median of 5 passes)@.";
  Fmt.pr "%-6s %-10s | %-9s | %-7s | %10s %8s %8s %6s | %8s@." "scale"
    "|ship|" "query" "leg" "wall_ms" "scans" "probes" "rows" "speedup";
  List.iter
    (fun s ->
      let db =
        Workload.Suppliers.generate (Workload.Suppliers.scaled ~seed:(11 + s) s)
      in
      ignore
        (Database.declare_index db "shipments" ~on:[ "hqty" ] : Secondary_index.t);
      let pair query q =
        let n_ship =
          Relation.cardinality (Database.find_relation db "shipments")
        in
        let leg name use_index =
          let opts = Exec_opts.make ~strategy:Strategy.s1234 ~use_index () in
          let report = exec_q_report ~opts db q in
          let session = Session.create db in
          let prep = Session.prepare ~opts session q in
          ignore (Prepared.exec prep : Relation.t);
          let (), ms, percentiles =
            time_percentiles ~repeat:5 (fun () ->
                ignore (Prepared.exec prep : Relation.t))
          in
          let access =
            match report.Exec_result.access_paths with
            | (_, p) :: _ -> p
            | [] -> "-"
          in
          record ~experiment:"B-INDEX" ~query ~strategy:name ~scale:s
            ~wall_ms:ms ~scans:report.Exec_result.scans
            ~probes:report.Exec_result.probes
            ~max_ntuple:report.Exec_result.max_ntuple ?percentiles
            ~extra:
              [
                ("rows", Obs.Json.Int report.Exec_result.rows);
                ("access_path", Obs.Json.Str access);
                ("shipments", Obs.Json.Int n_ship);
              ]
            ();
          (ms, report)
        in
        let scan_ms, scan_r = leg "scan" false in
        let indexed_ms, indexed_r = leg "indexed" true in
        let row name ms (r : Exec_result.t) speedup =
          Fmt.pr "%-6d %-10d | %-9s | %-7s | %10.3f %8d %8d %6d | %8s@." s
            n_ship query name ms r.Exec_result.scans r.Exec_result.probes
            r.Exec_result.rows speedup
        in
        row "scan" scan_ms scan_r "-";
        row "indexed" indexed_ms indexed_r
          (Fmt.str "%.1fx" (scan_ms /. Float.max indexed_ms 0.001))
      in
      pair "hqty=500" (shipments_where Calculus.eq 500);
      pair "hqty<6" (shipments_where Calculus.lt 6);
      pair "hqty>200" (shipments_where Calculus.gt 200))
    (scales [ 1; 2; 64; 512 ])

(* ------------------------------------------------------------------ *)
(* B-COLLECT: strategy 1 reads each relation once and does all of its
   collection work in that pass, so the paper counts the collection
   phase in scans.  Per grouped scan of london-some-red, the build's
   traced span against a bare uninstrumented walk of the same relation
   in the same process: the ratio is what the builds' per-tuple work
   costs on top of the walk they ride on.  Recorded, not gated.  A
   span snapshots the metrics registry when it opens and closes, at a
   cost that grows with the instruments earlier experiments left
   there, so the registry is emptied first. *)

let bench_collect () =
  section "B-COLLECT" "collection builds vs the bare walk of their relation";
  let passes = 41 in
  Fmt.pr
    "(london-some-red, index on shipments.hqty, jobs 1; medians of %d \
     passes, each a traced read then one walk per scanned relation)@."
    passes;
  Fmt.pr "%-6s | %-10s | %8s | %9s %9s %7s@." "scale" "relation" "tuples"
    "build_ms" "walk_ms" "ratio";
  Obs.Metrics.reset ();
  List.iter
    (fun s ->
      let db = Workload.Suppliers.generate (Workload.Suppliers.scaled s) in
      ignore
        (Database.declare_index db "shipments" ~on:[ "hqty" ] : Secondary_index.t);
      let opts = Exec_opts.make ~jobs:1 ~use_index:true () in
      let p =
        Session.prepare ~opts (Session.create db)
          (Workload.Suppliers.london_ships_some_red db)
      in
      for _ = 1 to 5 do
        ignore (Prepared.exec p : Relation.t)
      done;
      (* relation -> (build times, walk times), in first-scan order *)
      let samples = ref [] in
      let push rel build walk =
        match List.assoc_opt rel !samples with
        | Some (b, w) ->
          b := build :: !b;
          w := walk :: !w
        | None -> samples := !samples @ [ (rel, (ref [ build ], ref [ walk ])) ]
      in
      let walk rel =
        let r = Database.find_relation db rel and n = ref 0 in
        snd (time (fun () -> Relation.iter (fun _ -> incr n) r))
      in
      for _ = 1 to passes do
        let (), root =
          Obs.Trace.collect "read" (fun () ->
              ignore (Prepared.exec p : Relation.t))
        in
        let rec scans (sp : Obs.Trace.span) =
          let name = sp.Obs.Trace.sp_name in
          if String.starts_with ~prefix:"scan " name then
            [ (String.sub name 5 (String.length name - 5), sp.sp_elapsed_ms) ]
          else List.concat_map scans sp.sp_children
        in
        List.iter (fun (rel, ms) -> push rel ms (walk rel)) (scans root)
      done;
      let median l = fst (summarize !l) in
      List.iter
        (fun (rel, (builds, walks)) ->
          let build_ms = median builds and walk_ms = median walks in
          let ratio = build_ms /. Float.max walk_ms 0.001 in
          let tuples = Relation.cardinality (Database.find_relation db rel) in
          record ~experiment:"B-COLLECT" ~query:"london-some-red"
            ~strategy:("scan " ^ rel) ~scale:s ~wall_ms:build_ms ~scans:1
            ~probes:0 ~max_ntuple:0
            ~extra:
              [
                ("walk_ms", Obs.Json.Float walk_ms);
                ("ratio", Obs.Json.Float ratio);
                ("tuples", Obs.Json.Int tuples);
              ]
            ();
          Fmt.pr "%-6d | %-10s | %8d | %9.3f %9.3f %6.1fx@." s rel tuples
            build_ms walk_ms ratio)
        !samples)
    [ 8; 64 ]

(* ------------------------------------------------------------------ *)
(* B-TRAFFIC: the workload driver under concurrent clients — the same
   seeded university mix driven closed-loop (back-to-back, measures
   capacity) and open-loop (Poisson arrivals at a fixed offered rate;
   latency from *scheduled* arrival, so queueing delay is charged and
   coordinated omission cannot hide).  Passes interleave A-B-A-B so
   drift — heap growth, cache warmth — lands on both modes equally.
   One row per pass; the regression guard keys on (strategy, pass) and
   checks the achieved-throughput floor and the p95 ceiling. *)

let bench_traffic () =
  section "B-TRAFFIC" "concurrent-client traffic: closed vs open loop (A-B-A-B)";
  let module D = Workload.Driver in
  let scale = 2 and clients = 4 and requests = 120 and warmup = 20 in
  let rate = 50.0 and seed = 42 in
  let db = Workload.University.generate (uni_params scale) in
  let mix = D.university_mix db in
  Fmt.pr
    "(university scale %d, %d clients, %d requests, warmup %d, seed %d)@."
    scale clients requests warmup seed;
  Fmt.pr "%-4s %-12s | %8s %9s | %9s %9s %9s@." "pass" "mode" "offered"
    "achieved" "p50(ms)" "p95(ms)" "p99(ms)";
  (* One A-B-A-B round per mix: read-only, then a 30%-write mix whose
     commits go through snapshot transactions into traffic_log (the
     suffix keeps the regression-guard keys disjoint). *)
  let round ~query ~suffix mix =
    List.iteri
      (fun pass mode ->
        let cfg = D.config ~clients ~mode ~requests ~warmup ~seed () in
        let r = D.run cfg db mix in
        let p q = Obs.Histogram.quantile r.D.r_latency q in
        let p50 = p 0.5 and p95 = p 0.95 and p99 = p 0.99 in
        let strategy, offered =
          match mode with
          | D.Closed -> ("closed" ^ suffix, Obs.Json.Null)
          | D.Open rps -> ("open" ^ suffix, Obs.Json.Float rps)
        in
        record ~experiment:"B-TRAFFIC" ~query ~strategy ~scale
          ~wall_ms:r.D.r_wall_ms ~scans:0 ~probes:0 ~max_ntuple:0
          ~percentiles:(p50, p95, p99)
          ~extra:
            [
              ("pass", Obs.Json.Int pass);
              ("clients", Obs.Json.Int clients);
              ("requests", Obs.Json.Int requests);
              ("warmup", Obs.Json.Int warmup);
              ("offered_rps", offered);
              ("achieved_rps", Obs.Json.Float r.D.r_achieved_rps);
            ]
          ();
        Fmt.pr "%-4d %-12s | %8s %9.1f | %9.2f %9.2f %9.2f@." pass strategy
          (match mode with
          | D.Closed -> "-"
          | D.Open rps -> Fmt.str "%.1f" rps)
          r.D.r_achieved_rps p50 p95 p99)
      [ D.Closed; D.Open rate; D.Closed; D.Open rate ]
  in
  round ~query:"university-mix" ~suffix:"" mix;
  round ~query:"university-mix-rw" ~suffix:"-rw"
    (D.mix_for ~write_pct:30 db ~kind:"university")

(* ------------------------------------------------------------------ *)
(* B-WRITE: one-row upsert commit latency against relation size.  A
   durable (WAL-attached) store per size holds one relation of n rows
   with a hash index on its value column; every commit is a write
   transaction doing delete_key + insert of one existing key, which is
   what perfbench's supp-rw upserts do.  The sizes are interleaved
   round by round (1e2, 1e3, 1e4, 1e5, 1e2, ...) after warm-up commits,
   so drift in the disk's fsync time lands on every size alike.  The
   layer split is the per-commit mean of each layer: snapshot pin
   (begin_write), the write itself, WAL append, fsync wait, install.
   A write costs O(log n), so p50 should be flat in n; the regression
   guard's check 8 holds the largest size to 3x the smallest. *)

let write_sizes = [ 100; 1_000; 10_000; 100_000 ]

let write_schema =
  Schema.make
    [
      Schema.attr "k" (Vtype.TInt { lo = 0; hi = max_int });
      Schema.attr "v" (Vtype.TInt { lo = 0; hi = max_int });
    ]
    ~key:[ "k" ]

let hist_mean snap name =
  match Obs.Metrics.find snap name with
  | Some (Obs.Metrics.Histogram { count; sum; _ }) when count > 0 ->
    sum /. float_of_int count
  | _ -> 0.0

let bench_write () =
  section "B-WRITE" "one-row upsert commit latency vs relation size (durable)";
  let rounds = 300 and warmup = 30 in
  let dir = Filename.temp_dir "pascalr_bwrite" "" in
  let stores =
    List.map
      (fun n ->
        let db = Database.create () in
        let rel = Database.declare_relation db ~name:"rows" write_schema in
        for k = 0 to n - 1 do
          Relation.insert rel (Tuple.of_list [ Value.int k; Value.int (k * 7) ])
        done;
        ignore (Database.declare_index db "rows" ~on:[ "v" ] : Secondary_index.t);
        let path = Filename.concat dir (Fmt.str "rows%d.pascalrdb" n) in
        Database.attach_wal db ~path;
        (n, db, path))
      (scales write_sizes)
  in
  let rng = Random.State.make [| 17 |] in
  let upsert (n, db, _) =
    let k = Random.State.int rng n in
    let t0 = Unix.gettimeofday () in
    let txn = Database.begin_write db in
    let t1 = Unix.gettimeofday () in
    Database.Txn.delete_key txn "rows" [ Value.int k ];
    Database.Txn.insert txn "rows"
      (Tuple.of_list [ Value.int k; Value.int (Random.State.int rng 1_000_000) ]);
    let t2 = Unix.gettimeofday () in
    Database.Txn.commit txn;
    let t3 = Unix.gettimeofday () in
    ((t3 -. t0) *. 1000., (t1 -. t0) *. 1000., (t2 -. t1) *. 1000.)
  in
  for _ = 1 to warmup do
    List.iter (fun st -> ignore (upsert st)) stores
  done;
  let samples = List.map (fun _ -> ref []) stores in
  let layers = List.map (fun _ -> ref []) stores in
  for _ = 1 to rounds do
    List.iter2
      (fun st (acc, lay) ->
        let before = Obs.Metrics.snapshot () in
        let total, pin, write = upsert st in
        let d = Obs.Metrics.diff ~before ~after:(Obs.Metrics.snapshot ()) in
        acc := total :: !acc;
        lay :=
          [|
            pin;
            write;
            hist_mean d "wal.append_ms";
            hist_mean d "wal.sync_wait_ms";
            hist_mean d "txn.install_ms";
          |]
          :: !lay)
      stores
      (List.combine samples layers)
  done;
  Fmt.pr "(%d interleaved rounds after %d warm-up commits; WAL fsync per commit)@."
    rounds warmup;
  Fmt.pr "%-8s | %9s %9s %9s | %8s %8s %8s %8s %8s@." "rows" "p50(ms)"
    "p95(ms)" "p99(ms)" "pin" "write" "append" "fsync" "install";
  List.iter2
    (fun (n, db, _) (acc, lay) ->
      let median, percentiles = summarize !acc in
      let p50, p95, p99 =
        Option.value percentiles ~default:(median, median, median)
      in
      let mean i =
        List.fold_left (fun s a -> s +. a.(i)) 0.0 !lay
        /. float_of_int (List.length !lay)
      in
      let names = [| "pin_ms"; "write_ms"; "wal_append_ms"; "fsync_wait_ms"; "install_ms" |] in
      record ~experiment:"B-WRITE" ~query:"upsert" ~strategy:"durable" ~scale:n
        ~wall_ms:median ~scans:0 ~probes:0 ~max_ntuple:0 ?percentiles
        ~extra:
          (("commits", Obs.Json.Int rounds)
          :: Array.to_list (Array.mapi (fun i nm -> (nm, Obs.Json.Float (mean i))) names))
        ();
      Fmt.pr "%-8d | %9.3f %9.3f %9.3f | %8.3f %8.3f %8.3f %8.3f %8.3f@." n p50
        p95 p99 (mean 0) (mean 1) (mean 2) (mean 3) (mean 4);
      Database.close db)
    stores
    (List.combine samples layers);
  List.iter
    (fun (_, _, path) ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".tmp"; path ^ ".wal"; path ^ ".wal.tmp" ])
    stores;
  Sys.rmdir dir

let experiments =
  [
    ("B-SCALE", bench_scale);
    ("B-S1", bench_s1);
    ("B-S2", bench_s2);
    ("B-S3", bench_s3);
    ("B-S4", bench_s4);
    ("B-MM", bench_minmax);
    ("B-EQ", bench_eq_ne);
    ("B-EMPTY", bench_empty);
    ("B-DIV", bench_division);
    ("B-ORDER", bench_order);
    ("B-PREP", bench_prepared);
    ("B-PAGE", bench_page_io);
    ("B-IDX", bench_omitted_index_scans);
    ("B-CNF", bench_cnf);
    ("B-INDEX", bench_index);
    ("B-COLLECT", bench_collect);
    ("B-WRITE", bench_write);
    (* The two multi-domain experiments run last: the serial experiments
       must not share their process phase with extra domains, which tax
       every stop-the-world GC section.  B-TRAFFIC's client domains are
       joined when each pass ends; B-PAR's pool workers are joined by the
       Domain_pool.shutdown at its end. *)
    ("B-TRAFFIC", bench_traffic);
    ("B-PAR", bench_parallel);
  ]

let () =
  let spec =
    [
      ( "--only",
        Arg.String
          (fun s ->
            let ids = String.split_on_char ',' s |> List.map String.trim in
            List.iter
              (fun id ->
                if not (List.mem_assoc id experiments) then
                  raise (Arg.Bad ("unknown experiment " ^ id)))
              ids;
            only := Some ids),
        "LIST run only the named experiments (comma-separated ids)" );
      ( "--max-scale",
        Arg.Int (fun n -> max_scale := Some n),
        "N skip scale points above N (B-SCALE, B-DIV, B-ORDER, B-PAR; \
         B-WRITE's scale is its relation size)" );
      ("--out", Arg.Set_string out_path, "FILE results path");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench [--only LIST] [--max-scale N] [--out FILE]";
  Fmt.pr "PASCAL/R query processing strategies — experiment harness@.";
  Fmt.pr "(Jarke & Schmidt, SIGMOD 1982; see DESIGN.md section 4)@.";
  let enabled name =
    match !only with None -> true | Some ids -> List.mem name ids
  in
  List.iter (fun (name, f) -> if enabled name then f ()) experiments;
  write_results !out_path;
  Fmt.pr "@.machine-readable results written to %s@." !out_path;
  Fmt.pr "@.done.@."
