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

(* The index of the running query's conjunction with 4 atoms: prof &
   csoph & two joins. *)
let four_atom_conj (plan : Plan.t) =
  let rec go i = function
    | [] -> Alcotest.fail "no conjunction with 4 atoms"
    | (c : Plan.conj) :: rest ->
      if List.length c.Plan.atoms = 4 then i else go (i + 1) rest
  in
  go 0 plan.Plan.conjs

(* Figure 2 / Example 3.2: the single list sl_csoph has the low-level
   courses; the indirect join ij_c_t pairs them with timetable entries. *)
let test_figure_2_structures () =
  let _db, plan, coll = setup Strategy.palermo in
  let components = Collection.components coll (four_atom_conj plan) in
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
  | Some r -> Alcotest.(check int) "sl_csoph" 1 r.Batch.c_rows
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
  | Some r -> Alcotest.(check int) "ij_c_t (unrestricted)" 3 r.Batch.c_rows
  | None -> Alcotest.fail "no indirect join c-t"

(* With strategy 2 the monadic terms fold into the indirect joins:
   single lists for variables with dyadic terms disappear and the
   indirect join shrinks. *)
let test_s2_folds_monadic_terms () =
  let _db, plan, coll = setup Strategy.s12 in
  let components = Collection.components coll (four_atom_conj plan) in
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
    Alcotest.(check int) "ij_c_t restricted" 2 r.Batch.c_rows
  | None -> Alcotest.fail "no indirect join c-t"

(* Structures are shared across conjunctions: the professor single list
   is built once even though it appears in all three conjunctions. *)
let test_memoization () =
  let employee_scans () =
    Obs.Metrics.counter_value "relation.scans.employees"
  in
  let before = employee_scans () in
  let _, plan, coll = setup Strategy.palermo in
  List.iteri (fun i _ -> ignore (Collection.components coll i)) plan.Plan.conjs;
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
  Alcotest.(check int) "restricted base list" 2 bl.Batch.c_rows


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

(* A mutual restriction's own index filters belong to the indirect
   join's identity: the two conjunctions below both join e with p under
   a mutual (e.enr = t.tenr), once through Monday's timetable index and
   once through Tuesday's, so they need two indirect joins, not one
   shared one. *)
let test_mutual_filters_keyed () =
  let db = Workload.University.generate (Workload.University.scaled 1) in
  let q =
    Pascalr_lang.Elaborate.query_of_string db
      "[<e.enr> OF EACH e IN employees: SOME p IN papers SOME t IN \
       timetable ((e.enr = p.penr) AND (e.enr = t.tenr) AND ((t.tday = \
       monday) OR (t.tday = tuesday)))]"
  in
  let report = exec_q_report ~opts:(Exec_opts.make ~strategy:Strategy.s12 ()) db q in
  let ij_e_p =
    List.filter
      (fun (key, _) -> Helpers.contains key "pair:(e.enr = p.penr)")
      report.Exec_result.intermediates
  in
  Alcotest.(check int) "one ij_e_p per mutual filter" 2 (List.length ij_e_p);
  Helpers.check_same_result "answer" (Naive_eval.run db q)
    report.Exec_result.result

(* A declared index stands in only for the unfiltered index a join
   probes: under strategy 2 the papers side below is filtered by its
   monadic atom, so the join builds a filtered index and the declared
   papers.penr index is neither probed nor listed among the
   intermediates. *)
let test_stand_in_only_where_probed () =
  let db = Workload.University.generate (Workload.University.scaled 1) in
  ignore (Database.declare_index db "papers" ~on:[ "penr" ] : Secondary_index.t);
  let q =
    Pascalr_lang.Elaborate.query_of_string db
      "[<e.enr> OF EACH e IN employees: SOME p IN papers ((e.enr = p.penr) \
       AND (p.pyear = 1977))]"
  in
  let lists_stand_in strategy =
    let opts = Exec_opts.make ~strategy ~use_index:true () in
    List.mem_assoc "index:p.penr::[]"
      (exec_q_report ~opts db q).Exec_result.intermediates
  in
  Alcotest.(check bool) "s12: no unfiltered index listed" false
    (lists_stand_in Strategy.s12);
  Alcotest.(check bool) "s1: the stand-in is listed" true
    (lists_stand_in Strategy.s1)

(* Compiled build predicates against the interpreted evaluation: every
   comparison over int, string, enum and bool attributes, the constant
   on either side or a second attribute opposite, alone and under AND,
   TRUE and FALSE — the formulas a build compiles. *)
let color_labels = [| "red"; "green"; "blue" |]

let pred_schema =
  Schema.make
    [
      Schema.attr "i" Vtype.int_full;
      Schema.attr "s" Vtype.string_any;
      Schema.attr "e" (Vtype.enum "color" color_labels);
      Schema.attr "b" Vtype.boolean;
      Schema.attr "j" Vtype.int_full;
    ]
    ~key:[ "i" ]

let color_info = { Value.enum_name = "color"; labels = color_labels }

(* A random value of attribute [a]'s domain, from a small range so
   equal values come up often. *)
let random_value st a =
  match a with
  | 0 | 4 -> Value.int (Random.State.int st 5 - 2)
  | 1 -> Value.str [| ""; "a"; "ab"; "b" |].(Random.State.int st 4)
  | 2 -> Value.enum_ordinal color_info (Random.State.int st 3)
  | _ -> Value.bool (Random.State.bool st)

let random_atom st : Calculus.atom =
  let a = Random.State.int st 5 in
  let attr = Calculus.O_attr ("x", Schema.name_at pred_schema a) in
  let op =
    List.nth Value.all_comparisons
      (Random.State.int st (List.length Value.all_comparisons))
  in
  match Random.State.int st 4 with
  | 0 -> { lhs = attr; op; rhs = O_const (random_value st a) }
  | 1 -> { lhs = O_const (random_value st a); op; rhs = attr }
  | 2 ->
    (* Two attributes of one domain: i and j are both integers. *)
    let other = if a = 0 then 4 else if a = 4 then 0 else a in
    { lhs = attr; op; rhs = O_attr ("x", Schema.name_at pred_schema other) }
  | _ -> { lhs = O_const (random_value st a); op; rhs = O_const (random_value st a) }

let rec random_formula st depth : Calculus.formula =
  match if depth = 0 then 0 else Random.State.int st 6 with
  | 0 | 1 | 2 -> F_atom (random_atom st)
  | 3 -> F_and (random_formula st (depth - 1), random_formula st (depth - 1))
  | 4 -> F_and (F_true, random_formula st (depth - 1))
  | _ -> F_and (random_formula st (depth - 1), F_false)

let test_compiled_predicates =
  QCheck.Test.make ~name:"compiled build predicates = interpreted" ~count:500
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let db = Database.create () in
      List.for_all
        (fun _ ->
          let f = random_formula st 2 in
          let tuple = Tuple.of_list (List.init 5 (random_value st)) in
          let env =
            Calculus.Var_map.singleton "x"
              { Naive_eval.tuple; schema = pred_schema }
          in
          match Collection.compile_formula pred_schema "x" f with
          | Some holds -> holds tuple = Naive_eval.holds db env f
          | None -> false)
        (List.init 20 Fun.id))

(* What stays interpreted: a quantifier, OR, NOT, a foreign variable,
   a parameter, an unknown attribute. *)
let test_uncompiled_predicates () =
  let atom lhs rhs : Calculus.formula = F_atom { lhs; op = Value.Eq; rhs } in
  let own = Calculus.O_attr ("x", "i") and one = Calculus.O_const (Value.int 1) in
  List.iter
    (fun (what, f) ->
      Alcotest.(check bool) what true
        (Option.is_none (Collection.compile_formula pred_schema "x" f)))
    [
      ("OR", Calculus.F_or (atom own one, atom own one));
      ("NOT", F_not (atom own one));
      ("quantifier", F_some ("y", Calculus.base "r", atom own one));
      ("foreign variable", atom (O_attr ("y", "i")) one);
      ("parameter", atom own (O_param "p"));
      ("unknown attribute", atom (O_attr ("x", "zz")) one);
    ]

(* Reads allocate per structure built and per output row, not per
   tuple scanned: london-some-red at Suppliers.scaled 8 allocates
   14.2k minor words per execution (OCaml 5.1.1; 27.8k while the
   collection phase derived its structure descriptions again in every
   lookup, 30.4k while its intermediates were relations of boxed
   references, 31.5k while its value lists were hash sets, 75.9k before
   its builds were compiled), so twice that is the bound. *)
let test_read_allocation () =
  let db = Workload.Suppliers.generate (Workload.Suppliers.scaled 8) in
  let opts = Exec_opts.make ~jobs:1 ~batch_size:2048 ~use_index:true () in
  let p =
    Session.prepare ~opts (Session.create db)
      (Workload.Suppliers.london_ships_some_red db)
  in
  for _ = 1 to 3 do
    ignore (Prepared.exec p : Relation.t)
  done;
  let reps = 10 in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Prepared.exec p : Relation.t)
  done;
  let per_read = (Gc.minor_words () -. w0) /. float_of_int reps in
  Alcotest.(check bool)
    (Fmt.str "%.0f minor words per read, bound 28300" per_read)
    true (per_read <= 28_300.)

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
        Alcotest.test_case "mutual index filters key the indirect join" `Quick
          test_mutual_filters_keyed;
        Alcotest.test_case "a stand-in only where a join probes it" `Quick
          test_stand_in_only_where_probed;
        QCheck_alcotest.to_alcotest test_compiled_predicates;
        Alcotest.test_case "uncompiled predicates stay interpreted" `Quick
          test_uncompiled_predicates;
        Alcotest.test_case "read allocation per structure, not per tuple" `Quick
          test_read_allocation;
      ] );
  ]
