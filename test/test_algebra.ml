open Relalg
open Pascalr

module Stream = Algebra.Stream

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

let product a b = Stream.(materialize [ product (of_relation a) b ])
let project r names = Stream.(materialize [ project (of_relation r) names ])

(* A selection as a stream: the natural join with a relation of the
   wanted values degenerates to a semijoin filter. *)
let test_select_project () =
  let r = rel "r" [ (1, 10); (2, 20); (3, 30) ] in
  let wanted = unary "wanted" [ 2; 3; 9 ] in
  let big = Stream.(materialize [ natural_join (of_relation r) wanted ]) in
  Alcotest.(check int) "selected" 2 (Relation.cardinality big);
  Alcotest.(check (list int)) "projected" [ 1; 2; 3 ]
    (Helpers.ints (project r [ "x" ]))

let test_project_dedup () =
  let r = rel "r" [ (1, 10); (1, 20); (2, 30) ] in
  Alcotest.(check (list int)) "duplicates collapse" [ 1; 2 ]
    (Helpers.ints (project r [ "x" ]))

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
  let j = Stream.(materialize [ natural_join (of_relation a) b ]) in
  Alcotest.(check int) "matches" 3 (Relation.cardinality j)

(* Union is one materialization fed by several chains. *)
let test_set_operations () =
  let a = unary "a" [ 1; 2; 3 ] in
  let b = unary "b" [ 2; 3; 4 ] in
  let union rels =
    let pool = Batch.create_pool () in
    Stream.materialize (List.map (Stream.of_relation ~pool) rels)
  in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Helpers.ints (union [ a; b ]));
  Alcotest.(check (list int)) "union with an empty chain" [ 1; 2; 3 ]
    (Helpers.ints (union [ a; unary "e" [] ]))

(* Several chains into one sink: the set union of their outputs, a
   shape check across chains, and an iteration order that depends on
   neither the window nor the domain count. *)
let test_multi_chain_materialize () =
  let a = rel "a" (List.init 40 (fun i -> (i mod 9, i))) in
  let b = rel "b" (List.init 30 (fun i -> (i mod 5, i + 20))) in
  let c = unary ~attr:"y" "c" [ 3; 25; 26; 99 ] in
  let pool = Batch.create_pool () in
  let chains () =
    Stream.
      [
        of_relation ~pool a;
        natural_join (of_relation ~pool b) c;
        project (product (of_relation ~pool (unary "d" [ 7; 8 ])) c) [ "x"; "y" ];
      ]
  in
  let expected =
    List.sort_uniq Tuple.compare
      (Relation.to_list a
      @ List.filter
          (fun t -> List.mem (Tuple.get t 1) (List.map Value.int [ 3; 25; 26; 99 ]))
          (Relation.to_list b)
      @ List.concat_map
          (fun x -> List.map (fun y -> pair x y) [ 3; 25; 26; 99 ])
          [ 7; 8 ])
  in
  let reference = Stream.materialize ~batch_size:1 (chains ()) in
  Alcotest.(check (list Helpers.tuple)) "set union" expected
    (Relation.to_list reference);
  let seq r = List.rev (Relation.fold (fun acc t -> t :: acc) [] r) in
  List.iter
    (fun (batch_size, jobs) ->
      let par = { Domain_pool.jobs; threshold = 1 } in
      Alcotest.(check (list Helpers.tuple))
        (Printf.sprintf "window %d, jobs %d: iteration order" batch_size jobs)
        (seq reference)
        (seq (Stream.materialize ~par ~batch_size (chains ()))))
    [ (1, 1); (1, 4); (7, 1); (7, 4); (2048, 1); (2048, 4) ];
  match Stream.materialize [ Stream.of_relation (unary "u" [ 1 ]); Stream.of_relation a ] with
  | _ -> Alcotest.fail "expected Schema_error"
  | exception Errors.Schema_error _ -> ()

let test_semijoin_antijoin () =
  let a = rel "a" [ (1, 10); (2, 20); (3, 30) ] in
  let b = unary "b" [ 2; 3; 9 ] in
  let semi = Semijoin.some_eq_reduce ~outer_attr:"x" ~inner_attr:"x" a b in
  let anti = Semijoin.all_ne_reduce ~outer_attr:"x" ~inner_attr:"x" a b in
  Alcotest.(check int) "semijoin keeps matches" 2 (Relation.cardinality semi);
  Alcotest.(check int) "antijoin keeps rest" 1 (Relation.cardinality anti);
  Alcotest.(check (list int)) "antijoin content" [ 1 ]
    (Helpers.ints (project anti [ "x" ]))

let test_division () =
  (* r: student x course; divisor: required courses. *)
  let r = rel "enrolled" [ (1, 101); (1, 102); (2, 101); (3, 101); (3, 102) ] in
  let required = unary ~attr:"y" "required" [ 101; 102 ] in
  let q = Combination.divide ~v:"y" r required in
  Alcotest.(check (list int)) "students covering all" [ 1; 3 ] (Helpers.ints q)

let test_division_empty_divisor () =
  let r = rel "enrolled" [ (1, 101); (2, 102) ] in
  let empty = unary ~attr:"y" "required" [] in
  let q = Combination.divide ~v:"y" r empty in
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
      let q = Combination.divide ~v:"z" prod b in
      Relation.equal_set q a)

let suite =
  [
    ( "algebra",
      [
        Alcotest.test_case "select and project" `Quick test_select_project;
        Alcotest.test_case "projection deduplicates" `Quick test_project_dedup;
        Alcotest.test_case "product" `Quick test_product;
        Alcotest.test_case "equi join" `Quick test_equi_join;
        Alcotest.test_case "set operations" `Quick test_set_operations;
        Alcotest.test_case "multi-chain materialize" `Quick
          test_multi_chain_materialize;
        Alcotest.test_case "semijoin / antijoin" `Quick test_semijoin_antijoin;
        Alcotest.test_case "division" `Quick test_division;
        Alcotest.test_case "division by empty" `Quick test_division_empty_divisor;
        QCheck_alcotest.to_alcotest test_division_identity_property;
      ] );
  ]
