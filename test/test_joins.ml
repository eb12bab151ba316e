(* The combination phase's one join — the hash kernel behind
   {!Algebra.Stream.natural_join} — against a nested-loop reference
   written here, on arbitrary inputs including duplicate join keys,
   composite keys and empty sides, at several window sizes. *)

open Relalg

let left_schema =
  Schema.make
    [ Schema.attr "a" Vtype.int_full; Schema.attr "x" Vtype.int_full ]
    ~key:[]

let right_schema =
  Schema.make
    [ Schema.attr "a" Vtype.int_full; Schema.attr "y" Vtype.int_full ]
    ~key:[]

let rel schema rows =
  Relation.of_list schema
    (List.map (fun (k, v) -> Tuple.of_list [ Value.int k; Value.int v ]) rows)

(* Every pair of tuples agreeing on the shared attributes, the right
   side's shared columns dropped. *)
let nested_loop a b =
  let sa = Relation.schema a and sb = Relation.schema b in
  let shared = List.filter (Schema.mem sa) (Schema.names sb) in
  let keep = List.filter (fun n -> not (Schema.mem sa n)) (Schema.names sb) in
  let out =
    Relation.create (Schema.make (Schema.attrs sa @ Schema.attrs (Schema.project sb keep)) ~key:[])
  in
  Relation.iter
    (fun ta ->
      Relation.iter
        (fun tb ->
          if
            List.for_all
              (fun n ->
                Value.equal
                  (Tuple.get_by_name sa ta n)
                  (Tuple.get_by_name sb tb n))
              shared
          then
            Relation.insert out
              (Array.append ta
                 (Array.of_list (List.map (Tuple.get_by_name sb tb) keep))))
        b)
    a;
  out

let hash_join ~batch_size a b =
  Algebra.Stream.(materialize ~batch_size [ natural_join (of_relation a) b ])

let agree a b =
  let reference = nested_loop a b in
  List.for_all
    (fun batch_size -> Relation.equal_set reference (hash_join ~batch_size a b))
    [ 1; 7; 2048 ]

let test_joins_agree_simple () =
  let a = rel left_schema [ (1, 10); (2, 20); (2, 21); (3, 30) ] in
  let b = rel right_schema [ (2, 100); (2, 101); (4, 400) ] in
  (* run of 2 on the left (2 tuples) x run of 2 on the right = 4. *)
  Alcotest.(check int) "cardinality" 4
    (Relation.cardinality (hash_join ~batch_size:2048 a b));
  Alcotest.(check bool) "hash = nested loop" true (agree a b)

let test_joins_empty_sides () =
  let a = rel left_schema [ (1, 10) ] in
  let empty_r = rel right_schema [] and empty_l = rel left_schema [] in
  Alcotest.(check int) "empty build side" 0
    (Relation.cardinality (hash_join ~batch_size:2048 a empty_r));
  Alcotest.(check int) "empty probe side" 0
    (Relation.cardinality (hash_join ~batch_size:1 empty_l a))

let test_joins_agree_random =
  let pair_list = QCheck.Gen.(list_size (int_range 0 30)
                                (pair (int_range 0 8) (int_range 0 1000))) in
  QCheck.Test.make ~name:"hash join = nested-loop reference (random)" ~count:200
    (QCheck.make QCheck.Gen.(pair pair_list pair_list))
    (fun (ls, rs) ->
      (* Make rows unique so set semantics do not hide discrepancies. *)
      let uniq rows = List.mapi (fun i (k, _) -> (k, i)) rows in
      agree (rel left_schema (uniq ls)) (rel right_schema (uniq rs)))

let test_multi_attribute_join () =
  let schema last =
    Schema.make
      [
        Schema.attr "a" Vtype.int_full;
        Schema.attr "c" Vtype.int_full;
        Schema.attr last Vtype.int_full;
      ]
      ~key:[]
  in
  let mk s rows =
    Relation.of_list s
      (List.map
         (fun (k1, k2, v) -> Tuple.of_list [ Value.int k1; Value.int k2; Value.int v ])
         rows)
  in
  let a = mk (schema "x") [ (1, 1, 0); (1, 2, 1); (2, 1, 2) ] in
  let b = mk (schema "y") [ (1, 1, 9); (1, 2, 8); (2, 2, 7) ] in
  Alcotest.(check int) "two matches" 2
    (Relation.cardinality (hash_join ~batch_size:2048 a b));
  Alcotest.(check bool) "composite keys agree" true (agree a b)

let suite =
  [
    ( "joins",
      [
        Alcotest.test_case "implementations agree (duplicates)" `Quick
          test_joins_agree_simple;
        Alcotest.test_case "empty sides" `Quick test_joins_empty_sides;
        QCheck_alcotest.to_alcotest test_joins_agree_random;
        Alcotest.test_case "composite join keys" `Quick
          test_multi_attribute_join;
      ] );
  ]
