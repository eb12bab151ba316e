(* Persistent secondary indexes: build/probe/range semantics,
   incremental maintenance through relation mutations, MVCC
   copy-on-write independence, snapshot persistence with checksummed
   pages (and the index.* failpoints), the access path the collection
   phase reports per structure, the join algorithm the combination
   phase picks per step — and the QCheck differential proving that
   index-driven adaptive plans return exactly the tuples of the forced
   heap-scan nested-loop oracle across presets, jobs and batch sizes. *)

open Pascalr
open Relalg

let exec_q ?opts db q = Session.exec ?opts (Session.create db) q
let report ?opts db q = Session.exec_report ?opts (Session.create db) q

let mk_db () = Workload.Suppliers.generate Workload.Suppliers.default_params

let shipments_of db = Database.find_relation db "shipments"

let with_failpoints f =
  Fun.protect ~finally:Failpoint.disarm_all (fun () ->
      Failpoint.disarm_all ();
      f ())

(* ---------------------------------------------------------------- *)
(* Build, probe, range *)

let test_build_and_probe () =
  let db = mk_db () in
  let ship = shipments_of db in
  let ix = Secondary_index.build ~kind:Secondary_index.Hash ship ~on:[ "hqty" ] in
  Alcotest.(check int)
    "every shipment indexed"
    (Relation.cardinality ship)
    (Secondary_index.entry_count ix);
  (* Probes return exactly the tuples a scan-and-filter finds. *)
  let probes0 = Obs.Metrics.counter_value "index.probes" in
  Relation.iter
    (fun t ->
      let qty = Tuple.get t 2 in
      let expected =
        Relation.fold
          (fun acc u -> if Value.equal (Tuple.get u 2) qty then u :: acc else acc)
          [] ship
      in
      let got = Secondary_index.probe1 ix qty in
      Alcotest.(check int)
        "probe matches scan-and-filter"
        (List.length expected) (List.length got);
      List.iter
        (fun u ->
          Alcotest.(check bool) "probe tuple has the probed key" true
            (Value.equal (Tuple.get u 2) qty))
        got)
    ship;
  Alcotest.(check bool) "probes were counted" true
    (Obs.Metrics.counter_value "index.probes" > probes0);
  Alcotest.(check (list string)) "missing key probes empty" []
    (List.map Tuple.to_string (Secondary_index.probe1 ix (Value.int (-1))))

let test_sorted_range () =
  let db = mk_db () in
  let ship = shipments_of db in
  let ix =
    Secondary_index.build ~kind:Secondary_index.Sorted ship ~on:[ "hqty" ]
  in
  let count op v =
    let n = ref 0 in
    Secondary_index.iter_matching ix op (Value.int v) (fun _ -> incr n);
    !n
  in
  let scan_count op v =
    Relation.fold
      (fun acc t ->
        if Value.apply op (Tuple.get t 2) (Value.int v) then acc + 1
        else acc)
      0 ship
  in
  List.iter
    (fun (op, v) ->
      Alcotest.(check int)
        (Fmt.str "range %s %d agrees with scan" (Value.comparison_to_string op) v)
        (scan_count op v) (count op v);
      let frac =
        Secondary_index.matching_fraction ~cap:1.0 ix op (Value.int v)
      in
      let exact =
        float_of_int (scan_count op v)
        /. float_of_int (max 1 (Relation.cardinality ship))
      in
      Alcotest.(check (float 1e-9))
        (Fmt.str "matching_fraction %s %d is exact"
           (Value.comparison_to_string op) v)
        exact frac;
      (* Under a cap the walk may stop early, but only once the count
         has passed the cap: the answer is exact, or above the cap. *)
      let capped =
        Secondary_index.matching_fraction ~cap:0.1 ix op (Value.int v)
      in
      Alcotest.(check bool)
        (Fmt.str "capped matching_fraction %s %d" (Value.comparison_to_string op) v)
        true
        (Float.abs (capped -. exact) < 1e-9 || (capped > 0.1 && capped <= exact)))
    [
      (Value.Lt, 500);
      (Value.Le, 500);
      (Value.Gt, 900);
      (Value.Ge, 900);
      (Value.Eq, 500);
    ]

(* ---------------------------------------------------------------- *)
(* Incremental maintenance through relation mutations *)

(* hqty's declared domain is 1..1000, hsnr/hpnr cap at 999. *)
let shipment s p q = Tuple.of_list [ Value.int s; Value.int p; Value.int q ]

let test_maintenance_through_writes () =
  let db = mk_db () in
  let ship = shipments_of db in
  let ix = Database.declare_index db "shipments" ~on:[ "hqty" ] in
  let hits q = List.length (Secondary_index.probe1 ix (Value.int q)) in
  let before = hits 997 in
  Relation.insert ship (shipment 901 901 997);
  Alcotest.(check int) "insert maintained" (before + 1) (hits 997);
  Relation.delete_key ship [ Value.int 901; Value.int 901 ];
  Alcotest.(check int) "delete maintained" before (hits 997);
  Alcotest.(check bool) "consistent after insert+delete" true
    (Secondary_index.consistent_with ix ship);
  Relation.clear ship;
  Alcotest.(check int) "clear empties the index" 0
    (Secondary_index.entry_count ix);
  Alcotest.(check bool) "consistent after clear" true
    (Secondary_index.consistent_with ix ship)

let test_copy_independence () =
  let db = mk_db () in
  let ship = shipments_of db in
  let ix = Database.declare_index db "shipments" ~on:[ "hqty" ] in
  let snap = Secondary_index.copy ix in
  let before = Secondary_index.entry_count snap in
  Relation.insert ship (shipment 902 902 998);
  Alcotest.(check int) "original sees the insert" (before + 1)
    (Secondary_index.entry_count ix);
  Alcotest.(check int) "copy does not" before
    (Secondary_index.entry_count snap);
  Alcotest.(check bool) "copy still consistent with its snapshot count" true
    (Secondary_index.entry_count snap = before)

(* ---------------------------------------------------------------- *)
(* Persistence: snapshot round trip and the index.* failpoints *)

let temp_snapshot () = Filename.temp_file "pascalr_secix" ".pascalrdb"

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".tmp"; path ^ ".wal" ]

let test_save_load_roundtrip () =
  let path = temp_snapshot () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let db = mk_db () in
  ignore (Database.declare_index db "shipments" ~on:[ "hqty" ] : Secondary_index.t);
  ignore
    (Database.declare_index ~kind:Secondary_index.Sorted db "parts"
       ~on:[ "pweight" ]
      : Secondary_index.t);
  Database.save db ~path;
  let db2 = Database.load ~path in
  Alcotest.(check (list (triple string (list string) string)))
    "catalog survives the round trip"
    [ ("parts", [ "pweight" ], "sorted"); ("shipments", [ "hqty" ], "hash") ]
    (List.sort compare
       (List.map
          (fun (r, on, k) -> (r, on, Secondary_index.kind_to_string k))
          (Database.secondary_index_list db2)));
  List.iter
    (fun (rel_name, _, _) ->
      let rel = Database.find_relation db2 rel_name in
      List.iter
        (fun ix ->
          Alcotest.(check bool)
            (Fmt.str "loaded index on %s consistent" rel_name)
            true
            (Secondary_index.consistent_with ix rel))
        (Database.secondary_indexes db2 rel_name))
    (Database.secondary_index_list db2)

let test_save_crash_failpoint () =
  with_failpoints @@ fun () ->
  let path = temp_snapshot () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let db = mk_db () in
  ignore (Database.declare_index db "shipments" ~on:[ "hqty" ] : Secondary_index.t);
  Database.save db ~path;
  let committed =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  Failpoint.arm "index.save.crash" (Failpoint.Nth 1);
  (match Database.save db ~path with
  | () -> Alcotest.fail "expected Io_error from index.save.crash"
  | exception Errors.Io_error _ -> ());
  let after =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  Alcotest.(check bool) "crashed save left the committed snapshot intact" true
    (String.equal committed after)

let test_load_corrupt_rebuilds () =
  with_failpoints @@ fun () ->
  let path = temp_snapshot () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let db = mk_db () in
  ignore (Database.declare_index db "shipments" ~on:[ "hqty" ] : Secondary_index.t);
  Database.save db ~path;
  Failpoint.arm "index.load.corrupt" (Failpoint.Every 1);
  let rebuilds0 = Obs.Metrics.counter_value "index.recovery_rebuilds" in
  let db2 = Database.load ~path in
  Alcotest.(check bool) "corrupt index page was rebuilt (metric)" true
    (Obs.Metrics.counter_value "index.recovery_rebuilds" > rebuilds0);
  List.iter
    (fun ix ->
      Alcotest.(check bool) "rebuilt index consistent" true
        (Secondary_index.consistent_with ix (shipments_of db2)))
    (Database.secondary_indexes db2 "shipments")

(* ---------------------------------------------------------------- *)
(* Access-path and join-algorithm reporting *)

let hqty_query v =
  let open Calculus in
  {
    free = [ ("h", base "shipments") ];
    select = [ ("h", "hsnr"); ("h", "hpnr") ];
    body = eq (attr "h" "hqty") (cint v);
  }

let hqty_range_query v =
  let open Calculus in
  {
    free = [ ("h", base "shipments") ];
    select = [ ("h", "hsnr"); ("h", "hpnr") ];
    body = gt (attr "h" "hqty") (cint v);
  }

let path_of r key =
  match List.assoc_opt key r.Exec_result.access_paths with
  | Some p -> p
  | None ->
    Alcotest.failf "no access path recorded under %S (have: %s)" key
      (String.concat ", " (List.map fst r.Exec_result.access_paths))

let test_access_path_pins () =
  let db = mk_db () in
  ignore (Database.declare_index db "shipments" ~on:[ "hqty" ] : Secondary_index.t);
  (* use_index is forced on: the pins must hold under the
     PASCALR_NO_INDEX=1 test leg too, where the default flips off. *)
  let opts = Exec_opts.make ~strategy:Strategy.s1234 ~use_index:true () in
  let r = report ~opts db (hqty_query 500) in
  Alcotest.(check string) "equality over a hash index probes" "probe"
    (path_of r "base:h");
  Alcotest.(check int) "no heap scan on the probe path" 0 r.Exec_result.scans;
  let r_off =
    report
      ~opts:(Exec_opts.make ~strategy:Strategy.s1234 ~use_index:false ())
      db (hqty_query 500)
  in
  Alcotest.(check string) "use_index=false forces the heap scan" "scan"
    (path_of r_off "base:h");
  Alcotest.(check bool) "disabled run scans the heap" true
    (r_off.Exec_result.scans > 0);
  (* Identical answers either way. *)
  Alcotest.(check bool) "probe and scan agree" true
    (Relation.equal_set r.Exec_result.result r_off.Exec_result.result)

let test_range_path_pin () =
  let db = mk_db () in
  ignore
    (Database.declare_index ~kind:Secondary_index.Sorted db "shipments"
       ~on:[ "hqty" ]
      : Secondary_index.t);
  let opts = Exec_opts.make ~strategy:Strategy.s1234 ~use_index:true () in
  let r = report ~opts db (hqty_range_query 900) in
  Alcotest.(check string) "selective order atom over a sorted index" "range"
    (path_of r "base:h");
  (* An unselective range (matching most of the relation) must fall
     back to the scan: range_scan_max_fraction caps eligibility. *)
  let r_wide = report ~opts db (hqty_range_query 1) in
  Alcotest.(check string) "unselective range falls back to the scan" "scan"
    (path_of r_wide "base:h")

(* A two-variable equi-join collapses into one indirect-join pair
   structure in collection (zero streaming join steps), so the pin
   needs the three-variable running query: its combination joins the
   course/timetable structures through the stream engine. *)
let test_join_algo_pins () =
  let db = Workload.Random_query.tiny_db 3 in
  let join_query = Workload.Queries.running_query db in
  let opts = Exec_opts.make ~strategy:Strategy.s12 () in
  let before = Obs.Metrics.counter_value "combination.join.hash" in
  let r = report ~opts db join_query in
  Alcotest.(check bool) "streaming joins were recorded" true
    (r.Exec_result.join_algos <> []);
  List.iter
    (fun (step, algo) ->
      Alcotest.(check string) (Fmt.str "step %s ran the hash join" step) "hash"
        algo)
    r.Exec_result.join_algos;
  Alcotest.(check int) "one hash-join tally per recorded step"
    (List.length r.Exec_result.join_algos)
    (Obs.Metrics.counter_value "combination.join.hash" - before);
  Alcotest.(check bool) "the answer is the naive evaluator's" true
    (Relation.equal_set (Naive_eval.run db join_query) r.Exec_result.result)

let test_analyze_json_reports_paths () =
  let db = mk_db () in
  ignore (Database.declare_index db "shipments" ~on:[ "hqty" ] : Secondary_index.t);
  let opts = Exec_opts.make ~strategy:Strategy.s1234 ~use_index:true () in
  let a = Analyze.run ~opts db (hqty_query 500) in
  let json =
    Fmt.str "%a" Obs.Json.pp
      (Analyze.to_json ~database:"suppliers" ~scale:1 db (hqty_query 500) a)
  in
  let contains needle =
    let nh = String.length json and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub json i nn = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "analyze json has the access_paths section" true
    (contains "\"access_paths\"");
  Alcotest.(check bool) "analyze json reports the probe" true
    (contains "\"probe\"");
  Alcotest.(check bool) "analyze json has the join_algos section" true
    (contains "\"join_algos\"")

(* ---------------------------------------------------------------- *)
(* QCheck differential: adaptive index plans = forced heap scan *)

(* Sorted single-component indexes on every attribute of the Figure-1
   schema: sorted serves both the equality probes and the range scans,
   so every monadic atom the generator emits is a potential index
   drive. *)
let index_everything db =
  List.iter
    (fun rel ->
      List.iter
        (fun (a, _) ->
          ignore
            (Database.declare_index ~kind:Secondary_index.Sorted db rel
               ~on:[ a ]
              : Secondary_index.t))
        (Workload.Random_query.rel_attrs rel))
    Workload.Random_query.relations

let indexed_plans_agree_on seed =
  let db = Workload.Random_query.tiny_db ((seed * 2654435761) + 9) in
  index_everything db;
  let q = Workload.Random_query.generate db (seed + 23) in
  (* The oracle: heap scans only. *)
  let expected =
    exec_q
      ~opts:(Exec_opts.make ~strategy:Strategy.s1234 ~use_index:false ())
      db q
  in
  List.for_all
    (fun (sname, strategy) ->
      List.for_all
        (fun jobs ->
          List.for_all
            (fun batch_size ->
              let actual =
                exec_q
                  ~opts:
                    (Exec_opts.make ~strategy ~jobs ~batch_size
                       ~use_index:true ())
                  db q
              in
              Relation.equal_set expected actual
              ||
              QCheck.Test.fail_reportf
                "indexed %s (jobs=%d batch=%d) differs from heap-scan \
                 oracle on seed %d:@.%a@.expected %a@.got %a"
                sname jobs batch_size seed Calculus.pp_query q Relation.pp
                expected Relation.pp actual)
            [ 1; 2048 ])
        [ 1; 4 ])
    Strategy.all_presets

let test_indexed_differential =
  QCheck.Test.make
    ~name:"indexed adaptive plans = heap-scan oracle (presets x jobs x batch)"
    ~count:30
    QCheck.(make Gen.(int_range 0 100_000))
    indexed_plans_agree_on

(* Index maintenance differential: random insert/delete churn through
   direct relation writes keeps every declared index consistent, and a
   random query over the churned database — whose indexes may stand in
   for the collection phase's per-query ones — still equals naive. *)
let churn_keeps_consistent seed =
  let db = Workload.Random_query.tiny_db ((seed * 7927) + 3) in
  index_everything db;
  let rels = List.map (Database.find_relation db) Workload.Random_query.relations in
  let rng = Workload.Prng.create (seed + 71) in
  for _ = 1 to 40 do
    let rel = List.nth rels (Workload.Prng.in_range rng 0 (List.length rels - 1)) in
    let tuples = Relation.to_list rel in
    match tuples with
    | [] -> ()
    | ts ->
      let t = List.nth ts (Workload.Prng.in_range rng 0 (List.length ts - 1)) in
      if Workload.Prng.in_range rng 0 1 = 0 then
        Relation.delete_key rel (Tuple.key_of (Relation.schema rel) t)
      else
        (* Re-inserting a deleted witness keeps keys unique. *)
        let key = Tuple.key_of (Relation.schema rel) t in
        if Relation.find_key rel key <> None then
          Relation.delete_key rel key
  done;
  List.for_all
    (fun rel ->
      List.for_all
        (fun ix -> Secondary_index.consistent_with ix rel)
        (Database.secondary_indexes db (Relation.name rel)))
    rels
  &&
  let q = Workload.Random_query.generate db (seed + 29) in
  let expected = Naive_eval.run db q in
  List.for_all
    (fun (sname, strategy) ->
      Relation.equal_set expected
        (exec_q ~opts:(Exec_opts.make ~strategy ~use_index:true ()) db q)
      ||
      QCheck.Test.fail_reportf "churned %s differs from naive on seed %d:@.%a"
        sname seed Calculus.pp_query q)
    Strategy.all_presets

let test_churn_differential =
  QCheck.Test.make
    ~name:"random write churn keeps every secondary index consistent"
    ~count:50
    QCheck.(make Gen.(int_range 0 100_000))
    churn_keeps_consistent

let suite =
  [
    ( "secondary-index",
      [
        Alcotest.test_case "build + equality probes" `Quick test_build_and_probe;
        Alcotest.test_case "sorted ranges and exact fractions" `Quick
          test_sorted_range;
        Alcotest.test_case "maintained through insert/delete/clear" `Quick
          test_maintenance_through_writes;
        Alcotest.test_case "copy-on-write independence" `Quick
          test_copy_independence;
        Alcotest.test_case "snapshot save/load round trip" `Quick
          test_save_load_roundtrip;
        Alcotest.test_case "index.save.crash leaves snapshot intact" `Quick
          test_save_crash_failpoint;
        Alcotest.test_case "index.load.corrupt rebuilds from the heap" `Quick
          test_load_corrupt_rebuilds;
        Alcotest.test_case "access path pins: probe vs scan" `Quick
          test_access_path_pins;
        Alcotest.test_case "access path pins: range and fallback" `Quick
          test_range_path_pin;
        Alcotest.test_case "join algorithm pins: every keyed step hashes"
          `Quick test_join_algo_pins;
        Alcotest.test_case "analyze json carries paths and algorithms" `Quick
          test_analyze_json_reports_paths;
        QCheck_alcotest.to_alcotest test_indexed_differential;
        QCheck_alcotest.to_alcotest test_churn_differential;
      ] );
  ]
