open Pascalr
open Pascalr.Calculus
open Relalg

let project rel cols =
  Algebra.Stream.(materialize [ project (of_relation rel) cols ])

(* The existential running sub-query as a conjunctive equality query:
   e joins t joins c — a chain, hence a tree. *)
let chain_ranges = [ ("e", base "employees"); ("t", base "timetable"); ("c", base "courses") ]

let chain_conj db =
  let prof = Workload.Queries.professor db in
  let soph = Workload.Queries.sophomore db in
  [
    { lhs = attr "e" "estatus"; op = Value.Eq; rhs = const prof };
    { lhs = attr "c" "clevel"; op = Value.Le; rhs = const soph };
    { lhs = attr "e" "enr"; op = Value.Eq; rhs = attr "t" "tenr" };
    { lhs = attr "c" "cnr"; op = Value.Eq; rhs = attr "t" "tcnr" };
  ]

let test_graph_construction () =
  let db = Fixtures.make () in
  let conj = chain_conj db in
  match Semijoin.graph_of_conjunction [ "e"; "t"; "c" ] conj with
  | None -> Alcotest.fail "graph expected"
  | Some g ->
    Alcotest.(check int) "two edges" 2 (List.length g.Semijoin.g_edges);
    Alcotest.(check bool) "tree" true (Semijoin.is_tree g)

let test_non_equality_excluded () =
  (* clevel <= sophomore is monadic (fine); an inequality DYADIC term
     makes the conjunction fall outside the class. *)
  let conj = [ { lhs = attr "e" "enr"; op = Value.Lt; rhs = attr "p" "penr" } ] in
  Alcotest.(check bool) "not applicable" true
    (Option.is_none (Semijoin.graph_of_conjunction [ "e"; "p" ] conj))

let test_cycle_detection () =
  let e a b = { Semijoin.ev1 = a; ea1 = "x"; ev2 = b; ea2 = "x" } in
  let tri = { Semijoin.g_nodes = [ "a"; "b"; "c" ]; g_edges = [ e "a" "b"; e "b" "c"; e "c" "a" ] } in
  Alcotest.(check bool) "triangle is cyclic" false (Semijoin.is_acyclic tri);
  let path = { Semijoin.g_nodes = [ "a"; "b"; "c" ]; g_edges = [ e "a" "b"; e "b" "c" ] } in
  Alcotest.(check bool) "path is a tree" true (Semijoin.is_tree path);
  let disconnected = { Semijoin.g_nodes = [ "a"; "b"; "c" ]; g_edges = [ e "a" "b" ] } in
  Alcotest.(check bool) "forest, not tree" false (Semijoin.is_tree disconnected);
  Alcotest.(check bool) "forest is acyclic" true (Semijoin.is_acyclic disconnected)

(* Soundness and completeness of the full reducer on the chain query:
   the reduced employee set equals the projection of the join — the
   answer of the existential query. *)
let test_full_reducer_exact () =
  let db = Workload.University.generate Workload.University.small_params in
  let conj = chain_conj db in
  match Semijoin.reduce db chain_ranges conj with
  | None -> Alcotest.fail "reduction expected"
  | Some red ->
    let reduced_e = List.assoc "e" red.Semijoin.red_vars in
    let expected =
      Naive_eval.run db
        {
          free = [ ("e", base "employees") ];
          select = [ ("e", "enr") ];
          body =
            f_and
              (eq (attr "e" "estatus") (const (Workload.Queries.professor db)))
              (f_some "t" (base "timetable")
                 (f_and
                    (eq (attr "e" "enr") (attr "t" "tenr"))
                    (f_some "c" (base "courses")
                       (f_and
                          (eq (attr "c" "cnr") (attr "t" "tcnr"))
                          (le (attr "c" "clevel")
                             (const (Workload.Queries.sophomore db)))))));
        }
    in
    let reduced_enrs = project reduced_e [ "enr" ] in
    Alcotest.(check (list int))
      "fully reduced root = query answer" (Helpers.ints expected)
      (Helpers.ints reduced_enrs)

(* Every reduced relation is a subset of its monadic-filtered original,
   and re-running the reducer on the reduced database is a fixpoint. *)
let test_reduction_monotone_and_fixpoint () =
  let db = Workload.University.generate { Workload.University.small_params with seed = 5 } in
  let conj = chain_conj db in
  match Semijoin.reduce db chain_ranges conj with
  | None -> Alcotest.fail "reduction expected"
  | Some red ->
    List.iter
      (fun (v, after) ->
        let before = List.assoc v red.Semijoin.red_before in
        Alcotest.(check bool) (v ^ " shrinks") true (after <= before))
      red.Semijoin.red_after;
    (* Idempotence: applying the schedule again changes nothing. *)
    let again = Semijoin.run_steps red.Semijoin.red_vars red.Semijoin.red_steps in
    List.iter
      (fun (v, r) ->
        Alcotest.(check int)
          (v ^ " fixpoint")
          (Relation.cardinality (List.assoc v red.Semijoin.red_vars))
          (Relation.cardinality r))
      again

(* Cyclic fallback: a triangle query still reduces soundly. *)
let test_cyclic_reduction_sound () =
  let db = Workload.University.generate { Workload.University.small_params with seed = 9 } in
  (* e-t on enr, t-c on cnr, c-e on... there is no direct c/e equality
     attribute of the same kind except numbers: use cnr vs enr (both
     ints) to close the cycle artificially. *)
  let conj =
    [
      { lhs = attr "e" "enr"; op = Value.Eq; rhs = attr "t" "tenr" };
      { lhs = attr "c" "cnr"; op = Value.Eq; rhs = attr "t" "tcnr" };
      { lhs = attr "c" "cnr"; op = Value.Eq; rhs = attr "e" "enr" };
    ]
  in
  (match Semijoin.graph_of_conjunction [ "e"; "t"; "c" ] conj with
  | None -> Alcotest.fail "graph expected"
  | Some g -> Alcotest.(check bool) "cyclic" false (Semijoin.is_acyclic g));
  match Semijoin.reduce db chain_ranges conj with
  | None -> Alcotest.fail "reduction expected"
  | Some red ->
    (* Soundness: every surviving e participates in a full assignment. *)
    let reduced_e = List.assoc "e" red.Semijoin.red_vars in
    let expected =
      Naive_eval.run db
        {
          free = [ ("e", base "employees") ];
          select = [ ("e", "enr") ];
          body =
            f_some "t" (base "timetable")
              (f_and
                 (eq (attr "e" "enr") (attr "t" "tenr"))
                 (f_some "c" (base "courses")
                    (f_and
                       (eq (attr "c" "cnr") (attr "t" "tcnr"))
                       (eq (attr "c" "cnr") (attr "e" "enr")))));
        }
    in
    (* The fixpoint reduction of a cyclic query is sound but not
       necessarily complete; for this instance completeness is easy to
       check against the naive answer: reduced ⊇ answer always, and
       every answer member must survive. *)
    let survivors = Helpers.ints (project reduced_e [ "enr" ]) in
    List.iter
      (fun enr ->
        Alcotest.(check bool)
          (Printf.sprintf "answer member %d survives" enr)
          true (List.mem enr survivors))
      (Helpers.ints expected)

(* The universal extension: ALL-<> is the antijoin. *)
let test_all_ne_is_antijoin () =
  let db = Workload.University.generate Workload.University.small_params in
  let employees = Database.find_relation db "employees" in
  let papers = Database.find_relation db "papers" in
  let reduced =
    Semijoin.all_ne_reduce ~outer_attr:"enr" ~inner_attr:"penr" employees papers
  in
  let expected =
    Naive_eval.run db
      {
        free = [ ("e", base "employees") ];
        select = [ ("e", "enr") ];
        body = f_all "p" (base "papers") (ne (attr "e" "enr") (attr "p" "penr"));
      }
  in
  Alcotest.(check (list int))
    "ALL-<> = antijoin" (Helpers.ints expected)
    (Helpers.ints (project reduced [ "enr" ]))

let test_all_eq_at_most_one () =
  let db = Workload.University.generate Workload.University.small_params in
  let employees = Database.find_relation db "employees" in
  let papers = Database.find_relation db "papers" in
  let reduced =
    Semijoin.all_eq_reduce ~outer_attr:"enr" ~inner_attr:"penr" employees papers
  in
  let expected =
    Naive_eval.run db
      {
        free = [ ("e", base "employees") ];
        select = [ ("e", "enr") ];
        body = f_all "p" (base "papers") (eq (attr "e" "enr") (attr "p" "penr"));
      }
  in
  Alcotest.(check (list int))
    "ALL-= via at-most-one value" (Helpers.ints expected)
    (Helpers.ints (project reduced [ "enr" ]))

let test_all_eq_empty_inner () =
  let db = Fixtures.make () in
  Relation.clear (Database.find_relation db "papers");
  let employees = Database.find_relation db "employees" in
  let papers = Database.find_relation db "papers" in
  let reduced =
    Semijoin.all_eq_reduce ~outer_attr:"enr" ~inner_attr:"penr" employees papers
  in
  Alcotest.(check int) "ALL over empty keeps everything" 4
    (Relation.cardinality reduced)

let suite =
  [
    ( "semijoin",
      [
        Alcotest.test_case "query graph" `Quick test_graph_construction;
        Alcotest.test_case "non-equality excluded" `Quick
          test_non_equality_excluded;
        Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
        Alcotest.test_case "full reducer is exact on trees" `Quick
          test_full_reducer_exact;
        Alcotest.test_case "reduction monotone + fixpoint" `Quick
          test_reduction_monotone_and_fixpoint;
        Alcotest.test_case "cyclic fallback sound" `Quick
          test_cyclic_reduction_sound;
        Alcotest.test_case "ALL-<> is the antijoin" `Quick
          test_all_ne_is_antijoin;
        Alcotest.test_case "ALL-= at-most-one" `Quick test_all_eq_at_most_one;
        Alcotest.test_case "ALL-= over empty" `Quick test_all_eq_empty_inner;
      ] );
  ]
