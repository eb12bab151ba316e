open Relalg

let schema =
  Schema.make
    [
      Schema.attr "id" (Vtype.int_range 1 1000);
      Schema.attr "name" Vtype.string_any;
    ]
    ~key:[ "id" ]

let t id name = Tuple.of_list [ Value.int id; Value.str name ]

let test_insert_and_lookup () =
  let r = Relation.create ~name:"r" schema in
  Relation.insert r (t 1 "a");
  Relation.insert r (t 2 "b");
  Alcotest.(check int) "cardinality" 2 (Relation.cardinality r);
  Alcotest.(check (option Helpers.tuple))
    "selected variable r[2]" (Some (t 2 "b"))
    (Relation.find_key r [ Value.int 2 ]);
  Alcotest.(check (option Helpers.tuple))
    "absent key" None
    (Relation.find_key r [ Value.int 9 ])

let test_insert_idempotent () =
  let r = Relation.create ~name:"r" schema in
  Relation.insert r (t 1 "a");
  Relation.insert r (t 1 "a");
  Alcotest.(check int) "still one element" 1 (Relation.cardinality r)

let test_key_violation () =
  let r = Relation.create ~name:"r" schema in
  Relation.insert r (t 1 "a");
  match Relation.insert r (t 1 "b") with
  | () -> Alcotest.fail "expected Duplicate_key"
  | exception Errors.Duplicate_key _ -> ()

let test_domain_violation () =
  let r = Relation.create ~name:"r" schema in
  match Relation.insert r (t 5000 "out-of-range") with
  | () -> Alcotest.fail "expected Type_error"
  | exception Errors.Type_error _ -> ()

let test_delete () =
  let r = Relation.create ~name:"r" schema in
  Relation.insert r (t 1 "a");
  Relation.delete_key r [ Value.int 1 ];
  Alcotest.(check bool) "empty after delete" true (Relation.is_empty r)

let test_set_equality () =
  let a = Relation.of_list ~name:"a" schema [ t 1 "x"; t 2 "y" ] in
  let b = Relation.of_list ~name:"b" schema [ t 2 "y"; t 1 "x" ] in
  let c = Relation.of_list ~name:"c" schema [ t 1 "x" ] in
  Alcotest.(check bool) "a = b" true (Relation.equal_set a b);
  Alcotest.(check bool) "a <> c" false (Relation.equal_set a c);
  Alcotest.(check bool) "c subset a" true (Relation.subset c a);
  Alcotest.(check bool) "a not subset c" false (Relation.subset a c)

let test_scan_counters () =
  let r = Relation.of_list ~name:"r" schema [ t 1 "x"; t 2 "y" ] in
  let c = Obs.Metrics.counter_value in
  let scans0 = c "relation.scans" and named0 = c "relation.scans.r" in
  let probes0 = c "relation.probes" in
  Relation.scan (fun _ -> ()) r;
  Relation.scan (fun _ -> ()) r;
  Relation.iter (fun _ -> ()) r;
  Alcotest.(check int) "two counted scans" 2 (c "relation.scans" - scans0);
  Alcotest.(check int) "both under the relation's name" 2
    (c "relation.scans.r" - named0);
  ignore (Relation.find_key r [ Value.int 1 ]);
  Alcotest.(check int) "one probe" 1 (c "relation.probes" - probes0);
  (* An anonymous relation counts in the total only. *)
  let anon = Relation.of_list schema [ t 1 "x" ] in
  let named = Obs.Metrics.snapshot () in
  Relation.scan (fun _ -> ()) anon;
  Alcotest.(check (list string)) "no per-name counter" [ "relation.scans" ]
    (List.map fst
       (Obs.Metrics.diff ~before:named ~after:(Obs.Metrics.snapshot ())))

let test_to_list_sorted () =
  let r = Relation.of_list ~name:"r" schema [ t 3 "c"; t 1 "a"; t 2 "b" ] in
  Alcotest.(check (list Helpers.tuple))
    "sorted"
    [ t 1 "a"; t 2 "b"; t 3 "c" ]
    (Relation.to_list r)

let test_composite_key () =
  let s =
    Schema.make
      [
        Schema.attr "a" Vtype.int_full;
        Schema.attr "b" Vtype.int_full;
        Schema.attr "payload" Vtype.string_any;
      ]
      ~key:[ "a"; "b" ]
  in
  let r = Relation.create ~name:"r" s in
  Relation.insert r (Tuple.of_list [ Value.int 1; Value.int 2; Value.str "x" ]);
  Relation.insert r (Tuple.of_list [ Value.int 2; Value.int 1; Value.str "y" ]);
  Alcotest.(check int) "distinct composite keys" 2 (Relation.cardinality r);
  Alcotest.(check bool) "lookup composite" true
    (Relation.mem_key r [ Value.int 2; Value.int 1 ])

let test_database_catalog () =
  let db = Database.create () in
  let r = Database.declare_relation db ~name:"emp" schema in
  Relation.insert r (t 4 "dana");
  Alcotest.(check (list string)) "names" [ "emp" ] (Database.relation_names db);
  let tup = Database.deref db (Reference.make ~target:"emp" ~key:[ Value.int 4 ]) in
  Alcotest.check Helpers.tuple "deref" (t 4 "dana") tup;
  (match Database.deref db (Reference.make ~target:"emp" ~key:[ Value.int 5 ]) with
  | _ -> Alcotest.fail "expected Dangling_reference"
  | exception Errors.Dangling_reference _ -> ());
  match Database.find_relation db "nope" with
  | _ -> Alcotest.fail "expected Unknown_relation"
  | exception Errors.Unknown_relation _ -> ()

(* The persistent tuple table against a model: random inserts and
   deletes on two handles, where a [Copy] step re-forks the second from
   the first.  Each handle must match its own model after every step,
   so a copy never sees the other side's later writes. *)
let wide_schema =
  Schema.make
    [
      Schema.attr "id" (Vtype.TInt { lo = 0; hi = max_int });
      Schema.attr "v" (Vtype.TInt { lo = 0; hi = max_int });
    ]
    ~key:[ "id" ]

module Int_map = Map.Make (Int)

type copy_op = Ins of bool * int * int | Del of bool * int | Copy

let test_copy_model =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 200)
        (frequency
           [
             (6, map3 (fun s k v -> Ins (s, k, v)) bool (int_bound 101) (int_bound 3));
             (3, map2 (fun s k -> Del (s, k)) bool (int_bound 101));
             (1, return Copy);
           ]))
  in
  QCheck.Test.make ~name:"copies and writes match a model on both sides"
    ~count:150 (QCheck.make gen) (fun ops ->
      let keys = Array.init 102 Fun.id in
      let left = ref (Relation.create wide_schema) and right = ref (Relation.create wide_schema) in
      let ml = ref Int_map.empty and mr = ref Int_map.empty in
      let side s = if s then (left, ml) else (right, mr) in
      let agrees r m =
        Relation.cardinality r = Int_map.cardinal m
        && Array.for_all
             (fun k ->
               match Relation.find_key r [ Value.int k ], Int_map.find_opt k m with
               | None, None -> true
               | Some t, Some v -> Value.equal (Tuple.get t 1) (Value.int v)
               | _ -> false)
             keys
        && Relation.fold (fun n _ -> n + 1) 0 r = Int_map.cardinal m
      in
      List.for_all
        (fun op ->
          (match op with
          | Ins (s, i, v) ->
            let r, m = side s in
            let k = keys.(i) in
            Relation.delete_key !r [ Value.int k ];
            Relation.insert !r (Tuple.of_list [ Value.int k; Value.int v ]);
            m := Int_map.add k v !m
          | Del (s, i) ->
            let r, m = side s in
            let k = keys.(i) in
            Relation.delete_key !r [ Value.int k ];
            m := Int_map.remove k !m
          | Copy ->
            right := Relation.copy !left;
            mr := !ml);
          agrees !left !ml && agrees !right !mr)
        ops)

let suite =
  [
    ( "relation",
      [
        Alcotest.test_case "insert and key lookup" `Quick test_insert_and_lookup;
        Alcotest.test_case "insert idempotent" `Quick test_insert_idempotent;
        Alcotest.test_case "key violation" `Quick test_key_violation;
        Alcotest.test_case "domain violation" `Quick test_domain_violation;
        Alcotest.test_case "delete" `Quick test_delete;
        Alcotest.test_case "set equality" `Quick test_set_equality;
        Alcotest.test_case "scan counters" `Quick test_scan_counters;
        Alcotest.test_case "to_list sorted" `Quick test_to_list_sorted;
        Alcotest.test_case "composite keys" `Quick test_composite_key;
        Alcotest.test_case "database catalog and deref" `Quick
          test_database_catalog;
        QCheck_alcotest.to_alcotest test_copy_model;
      ] );
  ]
