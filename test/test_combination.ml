(* The streaming combination engine (cost-ordered joins, eager
   quantifier elimination, fused operators) against the
   declaration-order baseline, on the paper's worked examples.

   Two guarantees are pinned:
   - both engines and the naive evaluator agree on the result set;
   - the streaming engine's max_ntuple never exceeds the baseline's,
     and stays below the figures the baseline engine reported on the
     committed benchmark databases (98,881 n-tuples for the running
     query at scale 2; 126,589 for `no red part` at scale 2). *)

open Relalg
open Pascalr

(* One-shot autocommit through a throwaway session: the migration shim
   for call sites that evaluate a query against a bare database. *)
let exec_q ?opts db q = Session.exec ?opts (Session.create db) q
let exec_q_report ?opts db q = Session.exec_report ?opts (Session.create db) q


(* Scale-2 university database, byte-identical to the benchmark's
   [uni_params 2] so the hardcoded baseline figures apply. *)
let uni_db () =
  Workload.University.generate
    {
      Workload.University.default_params with
      Workload.University.n_employees = 20;
      n_papers = 30;
      n_courses = 12;
      n_timetable = 40;
      seed = 44;
    }

let suppliers_db () =
  Workload.Suppliers.generate (Workload.Suppliers.scaled ~seed:9 2)

let check_engines_agree ~pin db q strategies =
  let naive = Naive_eval.run db q in
  List.iter
    (fun (sname, strategy) ->
      let ordered =
        exec_q_report ~opts:(Exec_opts.make ~strategy ~join_order:Combination.Cost_ordered ())
          db q
      in
      let decl =
        exec_q_report ~opts:(Exec_opts.make ~strategy ~join_order:Combination.Declaration ())
          db q
      in
      Alcotest.(check bool)
        (sname ^ ": ordered engine agrees with naive")
        true
        (Relation.equal_set ordered.Exec_result.result naive);
      Alcotest.(check bool)
        (sname ^ ": declaration engine agrees with naive")
        true
        (Relation.equal_set decl.Exec_result.result naive);
      Alcotest.(check bool)
        (Fmt.str "%s: eager elimination max_ntuple %d <= baseline %d" sname
           ordered.Exec_result.max_ntuple decl.Exec_result.max_ntuple)
        true
        (ordered.Exec_result.max_ntuple <= decl.Exec_result.max_ntuple);
      Alcotest.(check bool)
        (Fmt.str "%s: max_ntuple %d below the seed-engine figure %d" sname
           ordered.Exec_result.max_ntuple pin)
        true
        (ordered.Exec_result.max_ntuple < pin))
    strategies

let strategies =
  [
    ("palermo", Strategy.palermo);
    ("s1", Strategy.s1);
    ("s1+s2", Strategy.s12);
    ("s1+s2+s3", Strategy.s123);
  ]

(* Running query (Example 2.1): the seed engine padded every
   conjunction to the full 4-variable order — 98,881 n-tuples at this
   scale under palermo/s1/s1+s2. *)
let test_running_query () =
  let db = uni_db () in
  check_engines_agree ~pin:98881 db (Workload.Queries.running_query db)
    strategies

let test_universal_query () =
  let db = uni_db () in
  check_engines_agree ~pin:98881 db (Workload.Queries.universal_query db)
    [ ("palermo", Strategy.palermo); ("s1+s2", Strategy.s12) ]

(* `no red part` (division through a negated nested SOME): 126,589
   padded n-tuples at scale 2 under s1+s2+s3 in the seed engine. *)
let test_no_red_part () =
  let db = suppliers_db () in
  check_engines_agree ~pin:126589 db
    (Workload.Suppliers.ships_no_red_part db)
    [ ("palermo", Strategy.palermo); ("s1+s2+s3", Strategy.s123) ]

(* Strategy 1's claim is engine-independent: the combination phase may
   reorder joins and skip padding, but every database relation is still
   read exactly as often as before — the collection phase alone decides
   the scans. *)
let test_s1_scans_engine_independent () =
  let db = uni_db () in
  let q = Workload.Queries.running_query db in
  let counts join_order =
    let _ = exec_q_report ~opts:(Exec_opts.make ~strategy:Strategy.s1 ~join_order ()) db q in
    List.map
      (fun r -> (Relation.name r, Relation.scan_count r))
      (Database.relations db)
  in
  let ordered = counts Combination.Cost_ordered in
  let decl = counts Combination.Declaration in
  List.iter
    (fun (rel, n) ->
      Alcotest.(check int)
        (Fmt.str "s1 scan count of %s" rel)
        n
        (List.assoc rel ordered))
    decl

(* A small classic reference: semijoin, projection and division as
   tuple-at-a-time loops over sorted tuple lists, independent of the
   column kernels. *)
let ref_project r names =
  let schema = Relation.schema r in
  let pos = Array.of_list (List.map (Schema.index_of schema) names) in
  Relation.of_list (Schema.project schema names)
    (List.map (Tuple.project pos) (Relation.to_list r))

(* a ⋉ b on the attribute both name [attr]. *)
let ref_semijoin attr a b =
  let get r t = Tuple.get_by_name (Relation.schema r) t attr in
  Relation.of_list (Relation.schema a)
    (List.filter
       (fun ta ->
         List.exists (fun tb -> Value.equal (get a ta) (get b tb)) (Relation.to_list b))
       (Relation.to_list a))

(* r ÷ s on the attribute both name [attr]: the projections q of r off
   [attr] such that (q, w) is in r for every [attr] value w of s. *)
let ref_divide attr r s =
  let rest = List.filter (fun n -> n <> attr) (Schema.names (Relation.schema r)) in
  let quotients = ref_project r rest in
  let pairs = Relation.to_list (ref_project r (rest @ [ attr ])) in
  Relation.of_list (Relation.schema quotients)
    (List.filter
       (fun q ->
         List.for_all
           (fun w -> List.exists (Tuple.equal (Array.append q w)) pairs)
           (Relation.to_list (ref_project s [ attr ])))
       (Relation.to_list quotients))

(* The fused stream kernels and the columnar divide agree with the
   classic operators wherever they overlap: a join projected onto one
   side is a semijoin, a product projected onto one side (non-empty
   other side) is a projection, and division inverts a product. *)
let test_stream_matches_classic () =
  let schema_a =
    Schema.make
      [ Schema.attr "x" Vtype.int_full; Schema.attr "y" Vtype.int_full ]
      ~key:[]
  in
  let schema_b =
    Schema.make
      [ Schema.attr "y" Vtype.int_full; Schema.attr "z" Vtype.int_full ]
      ~key:[]
  in
  let rng = Workload.Prng.create 2024 in
  let mk schema n lim =
    let rel = Relation.create schema in
    for _ = 1 to n do
      Relation.insert rel
        (Tuple.of_list
           [
             Value.int (Workload.Prng.in_range rng 1 lim);
             Value.int (Workload.Prng.in_range rng 1 lim);
           ])
    done;
    rel
  in
  let schema_c =
    Schema.make
      [ Schema.attr "u" Vtype.int_full; Schema.attr "z" Vtype.int_full ]
      ~key:[]
  in
  let a = mk schema_a 120 12 and b = mk schema_b 90 12 in
  let c = mk schema_c 40 12 in
  let module S = Algebra.Stream in
  let fused s cols = S.materialize [ S.project s cols ] in
  let join = S.natural_join (S.of_relation a) b in
  Alcotest.(check bool)
    "join projected onto the probe side = classic semijoin" true
    (Relation.equal_set (ref_semijoin "y" a b) (fused join [ "x"; "y" ]));
  Alcotest.(check bool)
    "join projected onto the build side = classic semijoin" true
    (Relation.equal_set (ref_semijoin "y" b a) (fused join [ "y"; "z" ]));
  let prod = S.product (S.of_relation a) c in
  Alcotest.(check bool)
    "product projected onto one side = classic projection" true
    (Relation.equal_set (ref_project a [ "x"; "y" ]) (fused prod [ "x"; "y" ]));
  let dividend = fused prod [ "x"; "y"; "u" ] and divisor = ref_project c [ "u" ] in
  Alcotest.(check bool)
    "classic division inverts the fused product" true
    (Relation.equal_set (ref_project a [ "x"; "y" ]) (ref_divide "u" dividend divisor));
  List.iter
    (fun (label, v, r, s) ->
      Alcotest.(check bool)
        ("columnar divide = classic division: " ^ label)
        true
        (Relation.equal_set (ref_divide v r s) (Combination.divide ~v r s)))
    [
      ("product", "u", dividend, divisor);
      ("random", "y", a, ref_project b [ "y" ]);
    ]

let suite =
  [
    ( "combination-engine",
      [
        Alcotest.test_case "running query: engines agree, eager shrinks"
          `Quick test_running_query;
        Alcotest.test_case "universal query: engines agree, eager shrinks"
          `Quick test_universal_query;
        Alcotest.test_case "no red part: engines agree, eager shrinks" `Quick
          test_no_red_part;
        Alcotest.test_case "s1 per-relation scans are engine-independent"
          `Quick test_s1_scans_engine_independent;
        Alcotest.test_case "fused streams match classic operators" `Quick
          test_stream_matches_classic;
      ] );
  ]
