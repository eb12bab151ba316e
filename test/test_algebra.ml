open Relalg

let sched =
  Schema.make
    [ Schema.attr "x" Vtype.int_full; Schema.attr "y" Vtype.int_full ]
    ~key:[]

let pair a b = Tuple.of_list [ Value.int a; Value.int b ]

let rel name rows =
  Relation.of_list ~name sched (List.map (fun (a, b) -> pair a b) rows)

let unary ?(attr = "x") name xs =
  Relation.of_list ~name
    (Schema.make [ Schema.attr attr Vtype.int_full ] ~key:[])
    (List.map (fun a -> Tuple.of_list [ Value.int a ]) xs)

let product a b =
  Algebra.Stream.(materialize (product (of_relation a) b))

let test_select_project () =
  let r = rel "r" [ (1, 10); (2, 20); (3, 30) ] in
  let big = Algebra.select (fun t -> Value.compare (Tuple.get t 1) (Value.int 15) > 0) r in
  Alcotest.(check int) "selected" 2 (Relation.cardinality big);
  let xs = Algebra.project r [ "x" ] in
  Alcotest.(check (list int)) "projected" [ 1; 2; 3 ] (Helpers.ints xs)

let test_project_dedup () =
  let r = rel "r" [ (1, 10); (1, 20); (2, 30) ] in
  let xs = Algebra.project r [ "x" ] in
  Alcotest.(check (list int)) "duplicates collapse" [ 1; 2 ] (Helpers.ints xs)

let test_product () =
  let a = unary "a" [ 1; 2 ] in
  let b = unary ~attr:"z" "b" [ 10; 20; 30 ] in
  let p = product a b in
  Alcotest.(check int) "2x3" 6 (Relation.cardinality p)

(* The equi-join of the combination phase is the natural join on the
   shared attribute name. *)
let test_equi_join () =
  let a = rel "a" [ (1, 100); (2, 200); (3, 300) ] in
  let b =
    Relation.of_list ~name:"b"
      (Schema.make
         [ Schema.attr "x" Vtype.int_full; Schema.attr "v" Vtype.int_full ]
         ~key:[])
      [ pair 1 7; pair 3 8; pair 3 9; pair 4 10 ]
  in
  let j = Algebra.Stream.(materialize (natural_join (of_relation a) b)) in
  Alcotest.(check int) "matches" 3 (Relation.cardinality j)

let test_set_operations () =
  let a = unary "a" [ 1; 2; 3 ] in
  let b = unary "b" [ 2; 3; 4 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ]
    (Helpers.ints (Algebra.union_all (Relation.schema a) [ a; b ]));
  Alcotest.(check (list int)) "union of nothing" []
    (Helpers.ints (Algebra.union_all (Relation.schema a) []))

let test_semijoin_antijoin () =
  let a = rel "a" [ (1, 10); (2, 20); (3, 30) ] in
  let b = unary "b" [ 2; 3; 9 ] in
  let semi = Algebra.semijoin ~on:[ ("x", "x") ] a b in
  let anti = Algebra.antijoin ~on:[ ("x", "x") ] a b in
  Alcotest.(check int) "semijoin keeps matches" 2 (Relation.cardinality semi);
  Alcotest.(check int) "antijoin keeps rest" 1 (Relation.cardinality anti);
  Alcotest.(check (list int)) "antijoin content" [ 1 ]
    (Helpers.ints (Algebra.project anti [ "x" ]))

let test_division () =
  (* r: student x course; divisor: required courses. *)
  let r = rel "enrolled" [ (1, 101); (1, 102); (2, 101); (3, 101); (3, 102) ] in
  let required = unary ~attr:"c" "required" [ 101; 102 ] in
  let q = Algebra.divide ~on:[ ("y", "c") ] r required in
  Alcotest.(check (list int)) "students covering all" [ 1; 3 ] (Helpers.ints q)

let test_division_empty_divisor () =
  let r = rel "enrolled" [ (1, 101); (2, 102) ] in
  let empty = unary ~attr:"c" "required" [] in
  let q = Algebra.divide ~on:[ ("y", "c") ] r empty in
  Alcotest.(check (list int)) "all quotients" [ 1; 2 ] (Helpers.ints q)

let test_division_identity_property =
  (* (r x s) / s = r for non-empty s. *)
  let gen = QCheck.Gen.(pair (list_size (int_range 1 8) (int_range 0 20))
                          (list_size (int_range 1 5) (int_range 0 20))) in
  QCheck.Test.make ~name:"division inverts product" ~count:100 (QCheck.make gen)
    (fun (xs, ys) ->
      let xs = List.sort_uniq compare xs and ys = List.sort_uniq compare ys in
      let a = unary "a" xs in
      let b = unary ~attr:"z" "b" ys in
      let prod = product a b in
      let q = Algebra.divide ~on:[ ("z", "z") ] prod b in
      Relation.equal_set q a)

let test_union_shape_mismatch () =
  let a = unary "a" [ 1 ] in
  let b = rel "b" [ (1, 2) ] in
  match Algebra.union_all (Relation.schema a) [ a; b ] with
  | _ -> Alcotest.fail "expected Schema_error"
  | exception Errors.Schema_error _ -> ()

let suite =
  [
    ( "algebra",
      [
        Alcotest.test_case "select and project" `Quick test_select_project;
        Alcotest.test_case "projection deduplicates" `Quick test_project_dedup;
        Alcotest.test_case "product" `Quick test_product;
        Alcotest.test_case "equi join" `Quick test_equi_join;
        Alcotest.test_case "set operations" `Quick test_set_operations;
        Alcotest.test_case "semijoin / antijoin" `Quick test_semijoin_antijoin;
        Alcotest.test_case "division" `Quick test_division;
        Alcotest.test_case "division by empty" `Quick test_division_empty_divisor;
        QCheck_alcotest.to_alcotest test_division_identity_property;
        Alcotest.test_case "union shape mismatch" `Quick
          test_union_shape_mismatch;
      ] );
  ]
