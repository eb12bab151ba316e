open Pascalr
open Relalg
open Pascalr.Calculus

let test_running_query () =
  let db = Fixtures.make () in
  let result = Naive_eval.run db (Workload.Queries.running_query db) in
  Alcotest.(check (list string))
    "Example 2.1 answer" Fixtures.running_query_answer
    (Helpers.strings result)

let test_example_4_5_agrees () =
  let db = Fixtures.make () in
  Alcotest.(check (list string))
    "Example 4.5 same answer" Fixtures.running_query_answer
    (Helpers.strings (Naive_eval.run db (Workload.Queries.example_4_5 db)))

let test_example_4_7_agrees () =
  let db = Fixtures.make () in
  Alcotest.(check (list string))
    "Example 4.7 same answer" Fixtures.running_query_answer
    (Helpers.strings (Naive_eval.run db (Workload.Queries.example_4_7 db)))

let test_quantifier_base_cases () =
  let db = Fixtures.make () in
  Relation.clear (Database.find_relation db "papers");
  (* SOME over empty is false, ALL over empty is true. *)
  Alcotest.(check bool) "SOME over empty" false
    (Naive_eval.closed_holds db
       (f_some "p" (base "papers") F_true));
  Alcotest.(check bool) "ALL over empty" true
    (Naive_eval.closed_holds db (f_all "p" (base "papers") F_false))

let test_restricted_range_semantics () =
  let db = Fixtures.make () in
  (* SOME p IN [papers: pyear = 1977] true; with 1877 false. *)
  Alcotest.(check bool) "restricted non-empty" true
    (Naive_eval.closed_holds db
       (f_some "p"
          (restricted "papers" "p" (eq (attr "p" "pyear") (cint 1977)))
          F_true));
  Alcotest.(check bool) "restricted empty" false
    (Naive_eval.closed_holds db
       (f_some "p"
          (restricted "papers" "p" (eq (attr "p" "pyear") (cint 1877)))
          F_true))

let test_nested_quantifiers () =
  let db = Fixtures.make () in
  (* There is an employee teaching a freshman course: kim (3) and lee (4)
     teach course 10. *)
  let f =
    f_some "e" (base "employees")
      (f_some "t" (base "timetable")
         (f_and
            (eq (attr "t" "tenr") (attr "e" "enr"))
            (f_some "c" (base "courses")
               (f_and
                  (eq (attr "c" "cnr") (attr "t" "tcnr"))
                  (eq (attr "c" "clevel")
                     (const
                        (Value.enum
                           (Database.find_enum db "leveltype")
                           "freshman")))))))
  in
  Alcotest.(check bool) "nested SOME" true (Naive_eval.closed_holds db f)

let test_suppliers_division_queries () =
  let db = Workload.Suppliers.generate Workload.Suppliers.default_params in
  let all_parts = Naive_eval.run db (Workload.Suppliers.ships_all_parts db) in
  (* Supplier 1 ships every part by construction. *)
  Alcotest.(check bool) "supplier 1 qualifies" true
    (Relation.cardinality all_parts >= 1);
  let all_red = Naive_eval.run db (Workload.Suppliers.ships_all_red_parts db) in
  Alcotest.(check bool) "all-parts implies all-red-parts" true
    (Relation.subset all_parts all_red);
  let some_red = Naive_eval.run db (Workload.Suppliers.london_ships_some_red db) in
  let no_red = Naive_eval.run db (Workload.Suppliers.ships_no_red_part db) in
  (* A supplier cannot both ship some red part and no red part. *)
  Alcotest.(check bool) "disjoint" false
    (Relation.exists (Relation.mem_tuple some_red) no_red)

let test_free_variable_product () =
  let db = Fixtures.make () in
  (* Two free variables: all (professor, professor) name pairs. *)
  let q =
    {
      free = [ ("e1", base "employees"); ("e2", base "employees") ];
      select = [ ("e1", "ename"); ("e2", "ename") ];
      body =
        f_and
          (eq (attr "e1" "estatus")
             (const (Workload.Queries.professor db)))
          (eq (attr "e2" "estatus")
             (const (Workload.Queries.professor db)));
    }
  in
  let result = Naive_eval.run db q in
  Alcotest.(check int) "3 x 3 pairs" 9 (Relation.cardinality result)

let test_result_schema_disambiguation () =
  let db = Fixtures.make () in
  let q =
    {
      free = [ ("e1", base "employees"); ("e2", base "employees") ];
      select = [ ("e1", "ename"); ("e2", "ename") ];
      body = F_true;
    }
  in
  let schema = Wellformed.result_schema db q in
  Alcotest.(check (list string))
    "disambiguated names" [ "e1_ename"; "e2_ename" ]
    (Schema.names schema)

let suite =
  [
    ( "naive_eval",
      [
        Alcotest.test_case "running query (Example 2.1)" `Quick
          test_running_query;
        Alcotest.test_case "Example 4.5 equivalence" `Quick
          test_example_4_5_agrees;
        Alcotest.test_case "Example 4.7 equivalence" `Quick
          test_example_4_7_agrees;
        Alcotest.test_case "quantifier base cases" `Quick
          test_quantifier_base_cases;
        Alcotest.test_case "restricted ranges" `Quick
          test_restricted_range_semantics;
        Alcotest.test_case "nested quantifiers" `Quick test_nested_quantifiers;
        Alcotest.test_case "suppliers division queries" `Quick
          test_suppliers_division_queries;
        Alcotest.test_case "free variable product" `Quick
          test_free_variable_product;
        Alcotest.test_case "result schema disambiguation" `Quick
          test_result_schema_disambiguation;
      ] );
  ]
