(* Tests of the collection phase in isolation: the Figure-2 structures
   (single lists, indexes, indirect joins) for the running example, and
   the strategy-2 restriction behaviour. *)

open Pascalr
open Relalg

(* One-shot autocommit through a throwaway session: the migration shim
   for call sites that evaluate a query against a bare database. *)
let exec_q ?opts db q = Session.exec ?opts (Session.create db) q
let exec_q_report ?opts db q = Session.exec_report ?opts (Session.create db) q


let setup strategy =
  let db = Fixtures.make () in
  let q = Workload.Queries.running_query db in
  let plan = Session.plan_only ~opts:(Exec_opts.make ~strategy:strategy ()) db q in
  let coll = Collection.create db strategy plan in
  Collection.run coll;
  (db, plan, coll)

(* Figure 2 / Example 3.2: the single list sl_csoph has the low-level
   courses; the indirect join ij_c_t pairs them with timetable entries. *)
let test_figure_2_structures () =
  let _db, plan, coll = setup Strategy.palermo in
  (* Find the conjunction with 4 atoms: prof & csoph & two joins. *)
  let conj =
    List.find
      (fun (c : Plan.conj) -> List.length c.Plan.atoms = 4)
      plan.Plan.conjs
  in
  let components = Collection.components coll conj in
  (* baseline: 2 single lists (prof, csoph) + 2 indirect joins. *)
  let singles, pairs =
    List.partition
      (function Collection.C_single _ -> true | Collection.C_pair _ -> false)
      components
  in
  Alcotest.(check int) "two single lists" 2 (List.length singles);
  Alcotest.(check int) "two indirect joins" 2 (List.length pairs);
  (* sl_csoph: exactly one course (cnr 10, freshman) qualifies. *)
  let csoph =
    List.find_map
      (function
        | Collection.C_single ("c", r) -> Some r
        | Collection.C_single _ | Collection.C_pair _ -> None)
      components
  in
  (match csoph with
  | Some r -> Alcotest.(check int) "sl_csoph" 1 (Relation.cardinality r)
  | None -> Alcotest.fail "no single list over c");
  (* ij_c_t: course 10 appears twice in the timetable; course 11 once
     but it is not low-level (unrestricted baseline keeps it anyway:
     the pair covers only the join term c.cnr = t.tcnr). *)
  let ij_ct =
    List.find_map
      (function
        | Collection.C_pair ("c", "t", r) | Collection.C_pair ("t", "c", r) ->
          Some r
        | Collection.C_pair _ | Collection.C_single _ -> None)
      components
  in
  match ij_ct with
  | Some r -> Alcotest.(check int) "ij_c_t (unrestricted)" 3 (Relation.cardinality r)
  | None -> Alcotest.fail "no indirect join c-t"

(* With strategy 2 the monadic terms fold into the indirect joins:
   single lists for variables with dyadic terms disappear and the
   indirect join shrinks. *)
let test_s2_folds_monadic_terms () =
  let _db, plan, coll = setup Strategy.s12 in
  let conj =
    List.find
      (fun (c : Plan.conj) -> List.length c.Plan.atoms = 4)
      plan.Plan.conjs
  in
  let components = Collection.components coll conj in
  let singles =
    List.filter
      (function Collection.C_single _ -> true | Collection.C_pair _ -> false)
      components
  in
  (* e, c, t all occur in dyadic terms of this conjunction: no single
     lists remain. *)
  Alcotest.(check int) "no single lists" 0 (List.length singles);
  let ij_ct =
    List.find_map
      (function
        | Collection.C_pair ("c", "t", r) | Collection.C_pair ("t", "c", r) ->
          Some r
        | Collection.C_pair _ | Collection.C_single _ -> None)
      components
  in
  match ij_ct with
  | Some r ->
    (* clevel <= sophomore restricts the probe side: only course 10's
       two timetable entries survive (Example 4.2). *)
    Alcotest.(check int) "ij_c_t restricted" 2 (Relation.cardinality r)
  | None -> Alcotest.fail "no indirect join c-t"

(* Structures are shared across conjunctions: the professor single list
   is built once even though it appears in all three conjunctions. *)
let test_memoization () =
  let employee_scans () =
    Obs.Metrics.counter_value "relation.scans.employees"
  in
  let before = employee_scans () in
  let _, plan, coll = setup Strategy.palermo in
  List.iter (fun c -> ignore (Collection.components coll c)) plan.Plan.conjs;
  (* The employees relation is scanned once per DISTINCT structure over
     it, not once per conjunction: prof single list + two probe scans
     (ij e-t and ij e-p) = 3, not 3 per conjunction. *)
  let scans = employee_scans () - before in
  Alcotest.(check bool)
    (Printf.sprintf "employees scanned %d times (distinct structures only)" scans)
    true (scans <= 3)

(* Base single lists apply the range restriction. *)
let test_base_list_restriction () =
  let db = Fixtures.make () in
  let q = Workload.Queries.example_4_5 db in
  let plan = Session.plan_only ~opts:(Exec_opts.make ~strategy:Strategy.palermo ()) db q in
  let coll = Collection.create db Strategy.palermo plan in
  let bl = Collection.base_list coll "p" in
  (* [papers: pyear = 1977] has two elements in the fixture. *)
  Alcotest.(check int) "restricted base list" 2 (Relation.cardinality bl)


(* Mutual restriction of indirect joins (Section 4.2: "this technique
   also allows two indirect joins to restrict each other"): in a
   conjunction with two dyadic terms probing from the same variable,
   each indirect join is filtered by existence in the other's index. *)
let test_mutual_restriction () =
  let db = Workload.University.generate Workload.University.small_params in
  let prof = Workload.Queries.professor db in
  let q =
    let open Pascalr.Calculus in
    {
      free = [ ("e", base "employees") ];
      select = [ ("e", "enr") ];
      body =
        f_and
          (eq (attr "e" "estatus") (const prof))
          (f_and
             (f_some "p" (base "papers") (eq (attr "e" "enr") (attr "p" "penr")))
             (f_some "t" (base "timetable")
                (eq (attr "e" "enr") (attr "t" "tenr"))));
    }
  in
  (* Expected ij_e_p size under mutual restriction: professor-paper
     pairs whose employee also appears in the timetable. *)
  let employees = Database.find_relation db "employees" in
  let papers = Database.find_relation db "papers" in
  let timetable = Database.find_relation db "timetable" in
  let es = Relation.schema employees
  and ps = Relation.schema papers
  and ts = Relation.schema timetable in
  let has_slot enr =
    Relation.exists
      (fun t -> Value.equal (Tuple.get_by_name ts t "tenr") enr)
      timetable
  in
  let expected_ij_e_p =
    Relation.fold
      (fun acc e ->
        let enr = Tuple.get_by_name es e "enr" in
        if
          Value.equal (Tuple.get_by_name es e "estatus") prof
          && has_slot enr
        then
          acc
          + Relation.fold
              (fun acc2 p ->
                if Value.equal (Tuple.get_by_name ps p "penr") enr then
                  acc2 + 1
                else acc2)
              0 papers
        else acc)
      0 employees
  in
  let report = exec_q_report ~opts:(Exec_opts.make ~strategy:Strategy.s12 ()) db q in
  let ij_e_p =
    List.fold_left
      (fun acc (key, size) ->
        if
          Helpers.contains key "pair:"
          && Helpers.contains key "p.penr"
          && Helpers.contains key "mutual[(e.enr = t.tenr)]"
        then acc + size
        else acc)
      0 report.Exec_result.intermediates
  in
  Alcotest.(check int) "ij_e_p mutually restricted" expected_ij_e_p ij_e_p;
  (* And of course the answer is right. *)
  Alcotest.(check bool) "answer correct" true
    (Relation.equal_set (Naive_eval.run db q) report.Exec_result.result)

let suite =
  [
    ( "collection",
      [
        Alcotest.test_case "Figure 2 structures (Example 3.2)" `Quick
          test_figure_2_structures;
        Alcotest.test_case "S2 folds monadic terms (Example 4.2)" `Quick
          test_s2_folds_monadic_terms;
        Alcotest.test_case "memoization across conjunctions" `Quick
          test_memoization;
        Alcotest.test_case "restricted base lists" `Quick
          test_base_list_restriction;
        Alcotest.test_case "mutual restriction of indirect joins" `Quick
          test_mutual_restriction;
      ] );
  ]
