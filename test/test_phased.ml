open Pascalr
open Relalg

(* One-shot autocommit through a throwaway session: the migration shim
   for call sites that evaluate a query against a bare database. *)
let exec_q ?opts db q = Session.exec ?opts (Session.create db) q
let exec_q_report ?opts db q = Session.exec_report ?opts (Session.create db) q


let queries db =
  [
    ("running (Ex 2.1)", Workload.Queries.running_query db);
    ("example 4.5", Workload.Queries.example_4_5 db);
    ("example 4.7", Workload.Queries.example_4_7 db);
    ("example 3.2", Workload.Queries.example_3_2 db);
    ("existential", Workload.Queries.existential_query db);
    ("universal", Workload.Queries.universal_query db);
    ("minmax some", Workload.Queries.minmax_some_query db);
    ("minmax all", Workload.Queries.minmax_all_query db);
    ("all eq", Workload.Queries.all_eq_query db);
    ("some ne", Workload.Queries.some_ne_query db);
  ]

let supplier_queries db =
  [
    ("ships all parts", Workload.Suppliers.ships_all_parts db);
    ("ships all red parts", Workload.Suppliers.ships_all_red_parts db);
    ("london some red", Workload.Suppliers.london_ships_some_red db);
    ("ships no red part", Workload.Suppliers.ships_no_red_part db);
  ]

(* Every strategy preset must agree with the naive evaluator on every
   query, on a generated university database. *)
let test_all_strategies_agree () =
  let db = Workload.University.generate Workload.University.small_params in
  List.iter
    (fun (qname, q) ->
      let expected = Naive_eval.run db q in
      List.iter
        (fun (sname, strategy) ->
          let actual = exec_q ~opts:(Exec_opts.make ~strategy ()) db q in
          Alcotest.(check bool)
            (Printf.sprintf "%s / %s" qname sname)
            true
            (Relation.equal_set expected actual))
        Strategy.all_presets)
    (queries db)

let test_all_strategies_agree_suppliers () =
  let db = Workload.Suppliers.generate Workload.Suppliers.default_params in
  List.iter
    (fun (qname, q) ->
      let expected = Naive_eval.run db q in
      List.iter
        (fun (sname, strategy) ->
          let actual = exec_q ~opts:(Exec_opts.make ~strategy ()) db q in
          Alcotest.(check bool)
            (Printf.sprintf "%s / %s" qname sname)
            true
            (Relation.equal_set expected actual))
        Strategy.all_presets)
    (supplier_queries db)

let test_exact_answer_fixture () =
  let db = Fixtures.make () in
  List.iter
    (fun (sname, strategy) ->
      let r = exec_q ~opts:(Exec_opts.make ~strategy ()) db (Workload.Queries.running_query db) in
      Alcotest.(check (list string))
        ("fixture answer / " ^ sname)
        Fixtures.running_query_answer (Helpers.strings r))
    Strategy.all_presets

(* Example 2.2's empty-papers case must be handled by every strategy. *)
let test_empty_papers_all_strategies () =
  let db = Fixtures.make () in
  Relation.clear (Database.find_relation db "papers");
  List.iter
    (fun (sname, strategy) ->
      let r = exec_q ~opts:(Exec_opts.make ~strategy ()) db (Workload.Queries.running_query db) in
      Alcotest.(check (list string))
        ("empty papers / " ^ sname)
        Fixtures.running_query_answer_empty_papers (Helpers.strings r))
    Strategy.all_presets

(* Emptying each relation in turn must keep all strategies equivalent to
   the naive evaluator. *)
let test_each_relation_empty () =
  List.iter
    (fun victim ->
      let db =
        Workload.University.generate_with_empty
          { Workload.University.small_params with seed = 11 }
          victim
      in
      List.iter
        (fun (qname, q) ->
          let expected = Naive_eval.run db q in
          List.iter
            (fun (sname, strategy) ->
              let actual = exec_q ~opts:(Exec_opts.make ~strategy ()) db q in
              Alcotest.(check bool)
                (Printf.sprintf "%s empty / %s / %s" victim qname sname)
                true
                (Relation.equal_set expected actual))
            Strategy.all_presets)
        (queries db))
    [ "employees"; "papers"; "courses"; "timetable" ]

(* Strategy 1 reads each database relation no more than once for the
   purely existential query (no per-element probing of base relations).
   The paper's claim: "each range relation is read no more than once". *)
let test_s1_scan_counts () =
  let db = Workload.University.generate Workload.University.small_params in
  let q = Workload.Queries.existential_query db in
  let _, scans =
    Helpers.scans_by_relation db (fun () ->
        exec_q_report ~opts:(Exec_opts.make ~strategy:Strategy.s12 ()) db q)
  in
  List.iter
    (fun rel_name ->
      Alcotest.(check bool)
        (rel_name ^ " scanned at most once")
        true
        (List.assoc rel_name scans <= 1))
    [ "employees"; "courses"; "timetable" ]

(* Without strategy 1 the same query performs strictly more scans. *)
let test_s1_reduces_scans () =
  let db = Workload.University.generate Workload.University.small_params in
  let q = Workload.Queries.running_query db in
  let r_palermo = exec_q_report ~opts:(Exec_opts.make ~strategy:Strategy.palermo ()) db q in
  let r_s1 = exec_q_report ~opts:(Exec_opts.make ~strategy:Strategy.s1 ()) db q in
  Alcotest.(check bool)
    (Printf.sprintf "S1 scans (%d) < palermo scans (%d)" r_s1.Exec_result.scans
       r_palermo.Exec_result.scans)
    true
    (r_s1.Exec_result.scans < r_palermo.Exec_result.scans)

(* Strategy 4 on Example 4.7's input empties the quantifier prefix: all
   three quantified variables are evaluated in the collection phase. *)
let test_s4_empties_prefix () =
  let db = Fixtures.make () in
  let q = Workload.Queries.example_4_7 db in
  let plan = Session.plan_only ~opts:(Exec_opts.make ~strategy:Strategy.s1234 ()) db q in
  Alcotest.(check int)
    "prefix emptied by pushing" 0
    (List.length plan.Plan.prefix)

(* Strategy 3 on the running query reduces the matrix from three
   conjunctions to two (Example 4.5: "There is one conjunction less to
   be evaluated"). *)
let test_s3_conjunction_count () =
  let db = Fixtures.make () in
  let q = Workload.Queries.running_query db in
  let sf = Standard_form.compile db q in
  Alcotest.(check int) "before: 3" 3 (List.length sf.Standard_form.matrix);
  let sf3 = Range_ext.apply db sf in
  Alcotest.(check int) "after: 2" 2 (List.length sf3.Standard_form.matrix);
  (* e's range must now be restricted by the professor test. *)
  let e_range = List.assoc "e" sf3.Standard_form.free in
  Alcotest.(check bool) "e range extended" true
    (Option.is_some e_range.Calculus.restriction);
  (* p's range must be restricted (to pyear = 1977). *)
  match
    List.find_opt
      (fun e -> String.equal e.Normalize.v "p")
      sf3.Standard_form.prefix
  with
  | None -> Alcotest.fail "p missing from prefix"
  | Some e ->
    Alcotest.(check bool) "p range extended" true
      (Option.is_some e.Normalize.range.Calculus.restriction)

(* The combination phase's intermediate growth shrinks monotonically as
   strategies are enabled on the running query. *)
let test_intermediate_shrinkage () =
  let db = Workload.University.generate Workload.University.small_params in
  let q = Workload.Queries.running_query db in
  let m strategy = (exec_q_report ~opts:(Exec_opts.make ~strategy ()) db q).Exec_result.max_ntuple in
  let palermo = m Strategy.palermo in
  let s123 = m Strategy.s123 in
  Alcotest.(check bool)
    (Printf.sprintf "S1-3 max n-tuple (%d) <= palermo (%d)" s123 palermo)
    true (s123 <= palermo)

let suite =
  [
    ( "phased_eval",
      [
        Alcotest.test_case "all strategies match naive (university)" `Quick
          test_all_strategies_agree;
        Alcotest.test_case "all strategies match naive (suppliers)" `Quick
          test_all_strategies_agree_suppliers;
        Alcotest.test_case "exact fixture answer" `Quick
          test_exact_answer_fixture;
        Alcotest.test_case "Example 2.2 empty papers" `Quick
          test_empty_papers_all_strategies;
        Alcotest.test_case "each relation emptied" `Slow
          test_each_relation_empty;
        Alcotest.test_case "S1 single scan per relation" `Quick
          test_s1_scan_counts;
        Alcotest.test_case "S1 reduces scan count" `Quick test_s1_reduces_scans;
        Alcotest.test_case "S4 empties the prefix (Ex 4.7)" `Quick
          test_s4_empties_prefix;
        Alcotest.test_case "S3 drops a conjunction (Ex 4.5)" `Quick
          test_s3_conjunction_count;
        Alcotest.test_case "intermediates shrink with strategies" `Quick
          test_intermediate_shrinkage;
      ] );
  ]
