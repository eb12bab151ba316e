(* The paged storage layer: tuple codec round trips, heap-file packing,
   buffer-pool accounting, and full engine equivalence over paged
   relations. *)

open Relalg

(* One-shot autocommit through a throwaway session: the migration shim
   for call sites that evaluate a query against a bare database. *)
let exec_q ?opts db q =
  Pascalr.Session.exec ?opts (Pascalr.Session.create db) q


let status =
  { Value.enum_name = "statustype"; labels = [| "student"; "professor" |] }

let schema =
  Schema.make
    [
      Schema.attr "id" Vtype.int_full;
      Schema.attr "name" Vtype.string_any;
      Schema.attr "st" (Vtype.TEnum status);
      Schema.attr "flag" Vtype.boolean;
    ]
    ~key:[ "id" ]

let sample_tuple n =
  Tuple.of_list
    [
      Value.int n;
      Value.str (Printf.sprintf "name-%d" n);
      Value.enum_ordinal status (n land 1);
      Value.bool (n land 3 = 0);
    ]

let test_codec_roundtrip () =
  List.iter
    (fun n ->
      let t = sample_tuple n in
      let decoded = Codec.decode_tuple schema (Codec.encode_tuple schema t) in
      Alcotest.check Helpers.tuple (Printf.sprintf "round trip %d" n) t decoded)
    [ 0; 1; 2; 42; -7; max_int; min_int ]

let test_codec_roundtrip_random =
  let gen = QCheck.Gen.(pair int (pair small_string bool)) in
  QCheck.Test.make ~name:"codec round trip (random)" ~count:300
    (QCheck.make gen)
    (fun (n, (s, b)) ->
      let t =
        Tuple.of_list
          [ Value.int n; Value.str s; Value.enum_ordinal status 1; Value.bool b ]
      in
      Tuple.equal t (Codec.decode_tuple schema (Codec.encode_tuple schema t)))

let test_codec_reference () =
  let rschema =
    Schema.make [ Schema.attr "r" (Vtype.reference "employees") ] ~key:[]
  in
  let t =
    Tuple.of_list
      [
        Value.VRef
          (Reference.make ~target:"employees"
             ~key:[ Value.int 7; Value.str "k"; Value.enum_ordinal status 1 ]);
      ]
  in
  let decoded = Codec.decode_tuple rschema (Codec.encode_tuple rschema t) in
  Alcotest.(check bool) "reference round trip (equality)" true
    (Tuple.equal t decoded)

let test_heap_file_packing () =
  let hf = Heap_file.create () in
  let pool = Buffer_pool.create ~capacity:4 in
  for i = 1 to 200 do
    Heap_file.append hf (Codec.encode_tuple schema (sample_tuple i))
  done;
  Alcotest.(check int) "200 records" 200 (Heap_file.record_count hf);
  Alcotest.(check bool) "multiple pages" true (Heap_file.page_count hf > 1);
  let seen = ref 0 in
  Heap_file.iter ~pool hf (fun bytes ->
      ignore (Codec.decode_tuple schema bytes);
      incr seen);
  Alcotest.(check int) "all records iterated" 200 !seen;
  Alcotest.(check int) "one fetch per page"
    (Heap_file.page_count hf)
    (Buffer_pool.stats pool).Buffer_pool.fetches

let test_buffer_pool_lru () =
  let pool = Buffer_pool.create ~capacity:2 in
  (* pages 0,1 fit; 2 evicts 0; re-access 0 misses again. *)
  ignore (Buffer_pool.access pool ~file:1 ~page:0);
  ignore (Buffer_pool.access pool ~file:1 ~page:1);
  Alcotest.(check bool) "page 1 hit" true (Buffer_pool.access pool ~file:1 ~page:1);
  ignore (Buffer_pool.access pool ~file:1 ~page:2);
  Alcotest.(check bool) "page 0 evicted" false
    (Buffer_pool.access pool ~file:1 ~page:0);
  let s = Buffer_pool.stats pool in
  Alcotest.(check int) "misses" 4 s.Buffer_pool.misses;
  Alcotest.(check bool) "evictions happened" true (s.Buffer_pool.evictions >= 2);
  Alcotest.(check int) "resident bounded" 2 (Buffer_pool.resident_count pool)

let test_paged_relation_scan () =
  let r = Relation.create ~name:"r" schema in
  for i = 1 to 100 do
    Relation.insert r (sample_tuple i)
  done;
  let pool = Buffer_pool.create ~capacity:8 in
  Relation.attach_storage r ~pool;
  Alcotest.(check bool) "pages allocated" true
    (match Relation.backing_pages r with Some n -> n > 1 | None -> false);
  (* Scans decode the same set of tuples. *)
  let seen = ref [] in
  Relation.scan (fun t -> seen := t :: !seen) r;
  Alcotest.(check int) "all tuples scanned" 100 (List.length !seen);
  Alcotest.(check bool) "same set" true
    (List.for_all (Relation.mem_tuple r) !seen);
  (* Insert-through and delete-rebuild. *)
  Relation.insert r (sample_tuple 101);
  Relation.delete_key r [ Value.int 1 ];
  let count = ref 0 in
  Relation.scan (fun _ -> incr count) r;
  Alcotest.(check int) "after update" 100 !count;
  Alcotest.(check bool) "pool counted reads" true
    ((Buffer_pool.stats pool).Buffer_pool.fetches > 0)

(* The whole engine over a fully paged database returns the same
   answers. *)
let test_engine_over_paged_database () =
  let db = Workload.University.generate Workload.University.small_params in
  let reference =
    List.map
      (fun q -> Pascalr.Naive_eval.run db q)
      [
        Workload.Queries.running_query db;
        Workload.Queries.universal_query db;
        Workload.Queries.example_4_7 db;
      ]
  in
  let pool = Database.attach_storage db ~pool_pages:16 in
  List.iteri
    (fun i q ->
      List.iter
        (fun (sname, strategy) ->
          let r = exec_q ~opts:(Pascalr.Exec_opts.make ~strategy ()) db q in
          Alcotest.(check bool)
            (Printf.sprintf "query %d / %s over paged storage" i sname)
            true
            (Relation.equal_set (List.nth reference i) r))
        Pascalr.Strategy.all_presets)
    [
      Workload.Queries.running_query db;
      Workload.Queries.universal_query db;
      Workload.Queries.example_4_7 db;
    ];
  Alcotest.(check bool) "pool saw traffic" true
    ((Buffer_pool.stats pool).Buffer_pool.fetches > 0)

(* Page I/O, the 1982 cost model: on a paged database the naive
   evaluator's repeated scans cost far more page fetches than the
   collected evaluation. *)
let test_page_io_cost_model () =
  (* The database must span more pages than the pool holds, so the
     naive evaluator's repeated scans thrash. *)
  let make () =
    let db = Workload.University.generate Workload.University.default_params in
    let pool = Database.attach_storage db ~pool_pages:4 in
    (db, pool)
  in
  let q db = Workload.Queries.running_query db in
  let db1, pool1 = make () in
  ignore (Pascalr.Naive_eval.run db1 (q db1));
  let naive_io = (Buffer_pool.stats pool1).Buffer_pool.misses in
  let db2, pool2 = make () in
  ignore (exec_q ~opts:(Pascalr.Exec_opts.make ~strategy:Pascalr.Strategy.s1234 ()) db2 (q db2));
  let full_io = (Buffer_pool.stats pool2).Buffer_pool.misses in
  Alcotest.(check bool)
    (Printf.sprintf "page reads: naive %d > full pipeline %d" naive_io full_io)
    true (naive_io > full_io)

(* A save streams the snapshot through a fixed chunk with running
   checksums: the file must hold exactly [snapshot_bytes] — here over
   several chunks, with index sections crossing chunk boundaries — and
   load back with the body and every index section's checksum intact. *)
let test_save_is_snapshot_bytes () =
  List.iter
    (fun indexes ->
      let db = Workload.Suppliers.generate (Workload.Suppliers.scaled 32) in
      List.iter
        (fun (rel, on) ->
          ignore (Database.declare_index db rel ~on : Secondary_index.t))
        indexes;
      let what = Fmt.str "%d indexes" (List.length indexes) in
      let path = Filename.temp_file "pascalr_save" ".pascalrdb" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          Database.save db ~path;
          let file = In_channel.with_open_bin path In_channel.input_all in
          let expected = Bytes.to_string (Database.snapshot_bytes db) in
          Alcotest.(check bool) (what ^ ": spans several chunks") true
            (String.length file > 3 * 32768);
          Alcotest.(check bool) (what ^ ": file = snapshot_bytes") true
            (String.equal file expected);
          let rebuilds () = Obs.Metrics.counter_value "index.recovery_rebuilds" in
          let before = rebuilds () in
          let loaded = Database.load ~path in
          Alcotest.(check int) (what ^ ": no section rebuilt") before (rebuilds ());
          Alcotest.(check bool) (what ^ ": load round trip") true
            (String.equal expected
               (Bytes.to_string (Database.snapshot_bytes loaded)))))
    [ []; [ ("shipments", [ "hqty" ]); ("suppliers", [ "scity" ]) ] ]

let suite =
  [
    ( "storage",
      [
        Alcotest.test_case "codec round trip" `Quick test_codec_roundtrip;
        QCheck_alcotest.to_alcotest test_codec_roundtrip_random;
        Alcotest.test_case "codec references" `Quick test_codec_reference;
        Alcotest.test_case "heap file packing" `Quick test_heap_file_packing;
        Alcotest.test_case "buffer pool LRU" `Quick test_buffer_pool_lru;
        Alcotest.test_case "paged relation scan" `Quick
          test_paged_relation_scan;
        Alcotest.test_case "engine over paged database" `Quick
          test_engine_over_paged_database;
        Alcotest.test_case "page I/O cost model" `Quick
          test_page_io_cost_model;
        Alcotest.test_case "save writes exactly snapshot_bytes" `Quick
          test_save_is_snapshot_bytes;
      ] );
  ]
