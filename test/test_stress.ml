(* Multi-domain stress of the process-global observability state: the
   flight-recorder ring and the query-stats registry are the two
   structures every client domain of the traffic driver writes through
   concurrently, so both are hammered from 4 domains and their
   accounting checked for exactness — no lost updates, [dropped]
   arithmetic that balances to the record, histogram counts that match
   the call count.  A final end-to-end case runs real Session
   executions from 4 domains over one shared read-only database.

   (The third observability structure, [Obs.Metrics], is domain-local
   by design — each domain owns a private registry and deltas merge at
   pool joins — so cross-domain stress is meaningless for it; its merge
   discipline is covered in test_parallel.ml.) *)

open Relalg
open Pascalr

(* One-shot autocommit through a throwaway session: the migration shim
   for call sites that evaluate a query against a bare database. *)
let exec_q ?opts db q = Session.exec ?opts (Session.create db) q


let domains = 4

let spawn_all f =
  Array.init domains (fun d -> Domain.spawn (fun () -> f d))
  |> Array.iter Domain.join

(* --------------------------------------------------------------- *)
(* Flight recorder: the ring is a mutex around one array store, so
   every record from every domain must land — [total_recorded] counts
   all of them, the ring retains exactly [capacity], and [dropped]
   accounts for the precise overflow. *)

let flight_record d i =
  {
    Obs.Flight_recorder.fr_digest = Printf.sprintf "stress-%d-%d" d i;
    fr_opts = "opts";
    fr_wall_ms = float_of_int i;
    fr_collection_ms = 0.0;
    fr_combination_ms = 0.0;
    fr_construction_ms = 0.0;
    fr_rows = d;
    fr_jobs = 1;
    fr_scans = 0;
    fr_probes = 0;
    fr_index_probes = 0;
    fr_pool_fetches = 0;
  }

let test_flight_ring_exact () =
  let per_domain = 1000 in
  let capacity = 64 in
  let saved = Obs.Flight_recorder.capacity () in
  Obs.Flight_recorder.set_capacity capacity;
  Fun.protect
    ~finally:(fun () -> Obs.Flight_recorder.set_capacity saved)
    (fun () ->
      spawn_all (fun d ->
          for i = 1 to per_domain do
            Obs.Flight_recorder.record (flight_record d i)
          done);
      let total = domains * per_domain in
      Alcotest.(check int) "every record counted, none lost" total
        (Obs.Flight_recorder.total_recorded ());
      Alcotest.(check int) "ring retains exactly its capacity" capacity
        (List.length (Obs.Flight_recorder.recent ()));
      Alcotest.(check int) "dropped accounts for the exact overflow"
        (total - capacity)
        (Obs.Flight_recorder.dropped ());
      (* Each surviving record is intact — a torn write would show up
         as a digest/rows mismatch. *)
      List.iter
        (fun r ->
          Alcotest.(check bool) "record not torn" true
            (Scanf.sscanf r.Obs.Flight_recorder.fr_digest "stress-%d-%d"
               (fun d _ -> d = r.Obs.Flight_recorder.fr_rows)))
        (Obs.Flight_recorder.recent ()))

(* --------------------------------------------------------------- *)
(* Query stats: all domains fold into one mutex-protected registry.
   Private digests must each see exactly their own calls; a digest
   shared by all domains must accumulate every call and row with no
   lost updates, and its latency histogram must hold every sample. *)

let test_query_stats_exact () =
  let per_domain = 1000 in
  Obs.Query_stats.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.Query_stats.reset ())
    (fun () ->
      spawn_all (fun d ->
          for i = 1 to per_domain do
            let record digest =
              Obs.Query_stats.record ~digest
                ~query:"stress query" ~opts:"opts" ~wall_ms:1.0
                ~collection_ms:0.2 ~combination_ms:0.2 ~construction_ms:0.1
                ~rows:3 ~cache_hit:(i mod 2 = 0) ~replans:0
            in
            record (Printf.sprintf "private-%d" d);
            record "shared"
          done);
      let entry digest =
        match Obs.Query_stats.find digest with
        | Some e -> e
        | None -> Alcotest.failf "no entry for %s" digest
      in
      for d = 0 to domains - 1 do
        let e = entry (Printf.sprintf "private-%d" d) in
        Alcotest.(check int) "private digest: exact call count" per_domain
          e.Obs.Query_stats.qs_calls
      done;
      let s = entry "shared" in
      let total = domains * per_domain in
      Alcotest.(check int) "shared digest: no lost calls" total
        s.Obs.Query_stats.qs_calls;
      Alcotest.(check int) "shared digest: no lost rows" (3 * total)
        s.Obs.Query_stats.qs_rows;
      Alcotest.(check int) "shared digest: no lost cache hits" (total / 2)
        s.Obs.Query_stats.qs_cache_hits;
      Alcotest.(check int) "shared digest: histogram holds every sample"
        total
        (Obs.Histogram.count s.Obs.Query_stats.qs_latency))

(* --------------------------------------------------------------- *)
(* End to end: 4 domains, each with its own Session (sessions and their
   plan caches are single-domain structures), hammering one shared
   read-only database.  Answers must match the serial reference on
   every iteration, and the global registries must account for every
   execution exactly. *)

let test_sessions_shared_database () =
  let per_domain = 25 in
  let db = Workload.University.generate Workload.University.small_params in
  let q = Workload.Queries.running_query db in
  let opts = Exec_opts.make ~jobs:1 () in
  let reference = Relation.to_list (exec_q ~opts db q) in
  Obs.Query_stats.reset ();
  Obs.Flight_recorder.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.Query_stats.reset ())
    (fun () ->
      let wrong = Atomic.make 0 in
      spawn_all (fun _ ->
          let session = Session.create db in
          for _ = 1 to per_domain do
            let r = Session.exec ~opts session q in
            if Relation.to_list r <> reference then Atomic.incr wrong
          done);
      Alcotest.(check int) "every concurrent answer matches serial" 0
        (Atomic.get wrong);
      let total = domains * per_domain in
      (match Obs.Query_stats.find (Session.digest q) with
      | None -> Alcotest.fail "no query-stats entry after the stress"
      | Some e ->
        Alcotest.(check int) "query stats saw every execution" total
          e.Obs.Query_stats.qs_calls;
        (* Each session plans once (cache miss), then hits its own
           cache: exactly one miss per domain. *)
        Alcotest.(check int) "one cache miss per session, rest hits"
          (total - domains) e.Obs.Query_stats.qs_cache_hits);
      Alcotest.(check int) "flight recorder saw every execution" total
        (Obs.Flight_recorder.total_recorded ()))

(* Per-execution scan and probe counts are this domain's metric deltas,
   so two domains reading one store concurrently each report exactly the
   serial counts — no execution's count leaks into another's report. *)
let test_concurrent_reports_exact () =
  let per_domain = 400 in
  let db = Workload.Suppliers.generate (Workload.Suppliers.scaled 2) in
  let q = Workload.Suppliers.london_ships_some_red db in
  let opts = Exec_opts.make ~jobs:1 () in
  let counts (r : Exec_result.t) = (r.Exec_result.scans, r.Exec_result.probes) in
  (* A cold run also counts its planning's reads: compare warm runs,
     each session having planned once first. *)
  let warm_session () =
    let session = Session.create db in
    ignore (Session.exec_report ~opts session q : Exec_result.t);
    session
  in
  let serial = counts (Session.exec_report ~opts (warm_session ()) q) in
  Fun.protect
    ~finally:(fun () -> Obs.Query_stats.reset ())
    (fun () ->
      let wrong = Atomic.make 0 and runs = Atomic.make 0 in
      Array.init 2 (fun _ ->
          Domain.spawn (fun () ->
              let session = warm_session () in
              for _ = 1 to per_domain do
                if counts (Session.exec_report ~opts session q) <> serial then
                  Atomic.incr wrong;
                Atomic.incr runs
              done))
      |> Array.iter Domain.join;
      Alcotest.(check bool) "serial run scans" true (fst serial > 0);
      Alcotest.(check int) "every report ran" (2 * per_domain) (Atomic.get runs);
      Alcotest.(check int) "reports with wrong scans/probes" 0
        (Atomic.get wrong))

(* The span tracer is domain-local: two domains collecting at once,
   around executions that overlap, each get a tree of their own spans
   only, and neither [collect] raises. *)
let test_concurrent_traces () =
  let db = Workload.Suppliers.generate (Workload.Suppliers.scaled 1) in
  let q = Workload.Suppliers.london_ships_some_red db in
  let opts = Exec_opts.make ~jobs:1 () in
  let rounds = 20 in
  let arrived = Atomic.make 0 in
  (* Wait until [n] arrivals, or a second: a domain whose collect raised
     never arrives, and the other must not hang for it. *)
  let rendezvous n =
    Atomic.incr arrived;
    let deadline = Unix.gettimeofday () +. 1.0 in
    while Atomic.get arrived < n && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done
  in
  let trace label () =
    let session = Session.create db in
    match
      Obs.Trace.collect label (fun () ->
          rendezvous 2;
          for k = 1 to rounds do
            Obs.Trace.with_span (Fmt.str "%s %d" label k) (fun () ->
                ignore (Session.exec ~opts session q : Relation.t))
          done;
          rendezvous 4)
    with
    | (), root -> Ok root
    | exception e -> Error (Printexc.to_string e)
  in
  let rec count name (s : Obs.Trace.span) =
    List.fold_left
      (fun n c -> n + count name c)
      (if String.equal s.Obs.Trace.sp_name name then 1 else 0)
      s.Obs.Trace.sp_children
  in
  [| "a"; "b" |]
  |> Array.map (fun label -> (label, Domain.spawn (trace label)))
  |> Array.iter (fun (label, d) ->
         match Domain.join d with
         | Error e -> Alcotest.failf "domain %s: collect raised %s" label e
         | Ok root ->
           Alcotest.(check string) "own root" label root.Obs.Trace.sp_name;
           Alcotest.(check (list string))
             (label ^ ": only its own rounds, in order")
             (List.init rounds (fun k -> Fmt.str "%s %d" label (k + 1)))
             (List.map
                (fun (c : Obs.Trace.span) -> c.Obs.Trace.sp_name)
                root.Obs.Trace.sp_children);
           Alcotest.(check int)
             (label ^ ": one collection span per own execution")
             rounds (count "collection" root))

let suite =
  [
    ( "obs-stress",
      [
        Alcotest.test_case "flight ring: exact totals under 4 domains"
          `Quick test_flight_ring_exact;
        Alcotest.test_case "query stats: exact totals under 4 domains"
          `Quick test_query_stats_exact;
        Alcotest.test_case "4 sessions, one database: answers and accounting"
          `Quick test_sessions_shared_database;
        Alcotest.test_case "2 domains, one store: every report's counts exact"
          `Quick test_concurrent_reports_exact;
        Alcotest.test_case "2 domains tracing at once: each its own spans"
          `Quick test_concurrent_traces;
      ] );
  ]
