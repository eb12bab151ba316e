(* Extensions beyond the paper's "current system version":

   - permanent indexes (Section 3.2: "The first step can be omitted, if
     permanent indexes exist", Example 3.1), played by declared
     secondary indexes;
   - range extensions in conjunctive normal form (Section 4.3's
     future-work remark). *)

open Pascalr
open Pascalr.Calculus
open Relalg

(* One-shot autocommit through a throwaway session: the migration shim
   for call sites that evaluate a query against a bare database. *)
let exec_q ?opts db q = Session.exec ?opts (Session.create db) q
let exec_q_report ?opts db q = Session.exec_report ?opts (Session.create db) q


(* --------------------------------------------------------------- *)
(* Permanent indexes: declared secondary indexes standing in for the
   collection phase's per-query index builds *)

let declare db rel attr =
  ignore (Database.declare_index db rel ~on:[ attr ] : Secondary_index.t)

(* Example 4.3's indexes, declared permanently. *)
let declare_example_indexes db =
  declare db "timetable" "tcnr";
  declare db "timetable" "tenr";
  declare db "papers" "penr"

let indexed strategy = Exec_opts.make ~strategy ~use_index:true ()

let test_stand_in_lookup () =
  let db = Fixtures.make () in
  declare db "timetable" "tcnr";
  match Database.secondary_on db "timetable" "tcnr" with
  | [ idx ] ->
    Alcotest.(check int) "entries" 3 (Secondary_index.entry_count idx);
    Alcotest.(check int) "course 10 taught twice" 2
      (List.length (Secondary_index.probe1 idx (Value.int 10)))
  | idxs -> Alcotest.failf "expected one index on tcnr, found %d" (List.length idxs)

let test_stand_in_saves_scans () =
  let db = Workload.University.generate Workload.University.small_params in
  let q = Workload.Queries.existential_query db in
  let before = (exec_q_report ~opts:(indexed Strategy.s12) db q).Exec_result.scans in
  declare db "timetable" "tcnr";
  declare db "timetable" "tenr";
  let report, scans =
    Helpers.scans_by_relation db (fun () ->
        exec_q_report ~opts:(indexed Strategy.s12) db q)
  in
  Alcotest.(check bool)
    (Printf.sprintf "scans drop (%d -> %d)" before report.Exec_result.scans)
    true
    (report.Exec_result.scans < before);
  (* timetable itself is never scanned: both its uses go through the
     permanent indexes. *)
  Alcotest.(check int) "timetable not scanned" 0
    (List.assoc "timetable" scans);
  (* And the answer is still right. *)
  let expected = Naive_eval.run db q in
  Alcotest.(check bool) "answer unchanged" true
    (Relation.equal_set expected report.Exec_result.result)

let example_queries =
  [
    ("running", Workload.Queries.running_query);
    ("existential", Workload.Queries.existential_query);
    ("universal", Workload.Queries.universal_query);
  ]

let test_stand_in_all_strategies_agree () =
  let db = Workload.University.generate Workload.University.small_params in
  declare_example_indexes db;
  List.iter
    (fun (qname, make_q) ->
      let q = make_q db in
      let expected = Naive_eval.run db q in
      List.iter
        (fun (sname, strategy) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s / %s" qname sname)
            true
            (Relation.equal_set expected (exec_q ~opts:(indexed strategy) db q)))
        Strategy.all_presets)
    example_queries

let test_stand_in_not_used_for_restricted_range () =
  (* A permanent whole-relation index must NOT stand in for an index
     over an S3-restricted range; correctness across strategies covers
     this, but check the restricted case explicitly. *)
  let db = Workload.University.generate Workload.University.small_params in
  declare db "courses" "cnr";
  let q = Workload.Queries.example_4_5 db in
  let expected = Naive_eval.run db q in
  Alcotest.(check bool) "restricted ranges still correct" true
    (Relation.equal_set expected (exec_q ~opts:(indexed Strategy.s123) db q))

(* Writes after declaration: delete every k-th timetable element, either
   straight through the relation or inside a write transaction whose
   own queries must see the deletes.  A stand-in that missed the writes
   would answer from stale entries. *)
let every_kth_key rel k =
  let schema = Relation.schema rel in
  List.filteri (fun i _ -> (i + 1) mod k = 0) (Relation.to_list rel)
  |> List.map (Tuple.key_of schema)

let check_after_writes label db exec_report =
  List.iter
    (fun (qname, make_q) ->
      let q = make_q db in
      List.iter
        (fun (sname, strategy) ->
          let r, scans =
            Helpers.scans_by_relation db (fun () ->
                exec_report (indexed strategy) q)
          in
          let cell = Printf.sprintf "%s: %s / %s" label qname sname in
          (* Under palermo and s1+2 both uses of timetable go through the
             declared indexes; s1+2+3+4 scans it for a value list. *)
          if String.equal qname "existential" && not (String.equal sname "s1234")
          then
            Alcotest.(check int) (cell ^ ": timetable not scanned") 0
              (List.assoc "timetable" scans);
          Alcotest.(check bool) cell true
            (Relation.equal_set (Naive_eval.run db q) r.Exec_result.result))
        [
          ("palermo", Strategy.palermo);
          ("s12", Strategy.s12);
          ("s1234", Strategy.s1234);
        ])
    example_queries

(* The default-size university: at the small size every deleted
   timetable element happens to be redundant for the three answers, so a
   stale index would go unnoticed. *)
let test_declared_index_after_writes () =
  List.iter
    (fun k ->
      let db = Workload.University.generate Workload.University.default_params in
      declare_example_indexes db;
      let timetable = Database.find_relation db "timetable" in
      List.iter (Relation.delete_key timetable) (every_kth_key timetable k);
      check_after_writes (Printf.sprintf "direct k=%d" k) db (fun opts q ->
          exec_q_report ~opts db q);
      let db = Workload.University.generate Workload.University.default_params in
      declare_example_indexes db;
      let session = Session.create db in
      Session.write session (fun txn ->
          let view = Session.Txn.database txn in
          List.iter
            (Session.Txn.delete_key txn "timetable")
            (every_kth_key (Database.find_relation view "timetable") k);
          check_after_writes (Printf.sprintf "txn k=%d" k) view (fun opts q ->
              Session.Txn.exec_report ~opts txn q)))
    [ 2; 3; 5 ]

(* use_index=false keeps declared indexes out of the collection phase
   entirely: the scan counts equal those of a run with no index — what
   keeps the PASCALR_NO_INDEX=1 leg an honest heap-scan oracle. *)
let test_no_index_never_stands_in () =
  List.iter
    (fun (qname, make_q) ->
      List.iter
        (fun (sname, strategy) ->
          let db = Workload.University.generate Workload.University.small_params in
          let q = make_q db in
          let scans () =
            let opts = Exec_opts.make ~strategy ~use_index:false () in
            let r, per_relation =
              Helpers.scans_by_relation db (fun () -> exec_q_report ~opts db q)
            in
            (r.Exec_result.scans, List.map snd per_relation)
          in
          let without = scans () in
          declare_example_indexes db;
          Alcotest.(check (pair int (list int)))
            (Printf.sprintf "%s / %s" qname sname)
            without (scans ()))
        [ ("palermo", Strategy.palermo); ("s12", Strategy.s12) ])
    example_queries

(* --------------------------------------------------------------- *)
(* CNF range extensions *)

(* ALL p over a matrix whose p-only conjunction has TWO monadic atoms:
   plain S3 cannot absorb it; the CNF refinement can. *)
let cnf_all_query db =
  ignore db;
  {
    free = [ ("e", base "employees") ];
    select = [ ("e", "enr") ];
    body =
      f_all "p" (base "papers")
        (f_or
           (f_and (ne (attr "p" "pyear") (cint 1977)) (gt (attr "p" "penr") (cint 5)))
           (eq (attr "p" "penr") (attr "e" "enr")));
  }

let test_cnf_absorbs_multi_atom_conjunction () =
  let db = Workload.University.generate Workload.University.small_params in
  let q = cnf_all_query db in
  let sf = Standard_form.compile db q in
  Alcotest.(check int) "two conjunctions" 2 (List.length sf.Standard_form.matrix);
  let plain = Range_ext.apply db sf in
  Alcotest.(check int) "plain S3 cannot absorb" 2
    (List.length plain.Standard_form.matrix);
  let with_cnf = Range_ext.apply ~cnf:true db sf in
  Alcotest.(check int) "CNF absorbs the pure-monadic conjunction" 1
    (List.length with_cnf.Standard_form.matrix);
  (match
     List.find_opt
       (fun e -> String.equal e.Normalize.v "p")
       with_cnf.Standard_form.prefix
   with
  | Some e ->
    Alcotest.(check bool) "p range restricted" true
      (Option.is_some e.Normalize.range.restriction)
  | None -> Alcotest.fail "p should stay in the prefix");
  (* Semantics preserved. *)
  let expected = Naive_eval.run db q in
  Alcotest.(check bool) "answers agree" true
    (Relation.equal_set expected
       (exec_q ~opts:(Exec_opts.make ~strategy:Strategy.full_cnf ()) db q))

(* SOME c with different monadic terms in different conjunctions: the
   CNF clause (freshman OR senior) shrinks the range. *)
let test_cnf_clause_extension () =
  let db = Workload.University.generate Workload.University.small_params in
  let level = Database.find_enum db "leveltype" in
  let q =
    {
      free = [ ("e", base "employees") ];
      select = [ ("e", "enr") ];
      body =
        f_some "t" (base "timetable")
          (f_and
             (eq (attr "t" "tenr") (attr "e" "enr"))
             (f_some "c" (base "courses")
                (f_and
                   (eq (attr "c" "cnr") (attr "t" "tcnr"))
                   (f_or
                      (eq (attr "c" "clevel") (const (Value.enum level "freshman")))
                      (eq (attr "c" "clevel") (const (Value.enum level "senior")))))));
    }
  in
  let sf = Standard_form.compile db q in
  let with_cnf = Range_ext.apply ~cnf:true db sf in
  (match
     List.find_opt
       (fun e -> String.equal e.Normalize.v "c")
       with_cnf.Standard_form.prefix
   with
  | Some e ->
    Alcotest.(check bool) "c range carries the clause" true
      (Option.is_some e.Normalize.range.restriction)
  | None -> ());
  let expected = Naive_eval.run db q in
  Alcotest.(check bool) "answers agree" true
    (Relation.equal_set expected
       (exec_q ~opts:(Exec_opts.make ~strategy:Strategy.full_cnf ()) db q))

(* CNF on random queries: full_cnf must agree with naive everywhere. *)
let test_cnf_random =
  QCheck.Test.make ~name:"CNF extension preserves semantics (random)"
    ~count:120
    QCheck.(make Gen.(int_range 0 100_000))
    (fun seed ->
      let db = Workload.Random_query.tiny_db (seed * 61) in
      let q = Workload.Random_query.generate db (seed + 5) in
      let expected = Naive_eval.run db q in
      Relation.equal_set expected
        (exec_q ~opts:(Exec_opts.make ~strategy:Strategy.full_cnf ()) db q)
      && Relation.equal_set expected
           (exec_q ~opts:(Exec_opts.make ~strategy:Strategy.s123c ()) db q))

let suite =
  [
    ( "extensions",
      [
        Alcotest.test_case "permanent index lookup" `Quick
          test_stand_in_lookup;
        Alcotest.test_case "permanent index saves scans" `Quick
          test_stand_in_saves_scans;
        Alcotest.test_case "permanent index: strategies agree" `Quick
          test_stand_in_all_strategies_agree;
        Alcotest.test_case "permanent index vs restricted range" `Quick
          test_stand_in_not_used_for_restricted_range;
        Alcotest.test_case "declared index stays correct after writes"
          `Quick test_declared_index_after_writes;
        Alcotest.test_case "use_index=false: no stand-in" `Quick
          test_no_index_never_stands_in;
        Alcotest.test_case "CNF absorbs multi-atom ALL conjunction" `Quick
          test_cnf_absorbs_multi_atom_conjunction;
        Alcotest.test_case "CNF clause extension" `Quick
          test_cnf_clause_extension;
        QCheck_alcotest.to_alcotest test_cnf_random;
      ] );
  ]
