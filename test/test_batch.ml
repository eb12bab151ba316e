(* The vectorized batch execution layer — the one engine behind
   {!Algebra.Stream}: window-boundary edge cases on the stream kernels
   (empty source, no surviving rows, window larger than the input,
   windows that don't divide the cardinality), the join's column-class
   check, and the QCheck differential pinning the engine against the
   naive evaluator — identical result sets for every window size,
   strategy preset and jobs count, and identical iteration order across
   window sizes and jobs whenever the query involves no universal
   quantification (the columnar divide is documented to reorder only
   the quotient). *)

open Relalg
open Pascalr

(* One-shot autocommit through a throwaway session: the migration shim
   for call sites that evaluate a query against a bare database. *)
let exec_q ?opts db q = Session.exec ?opts (Session.create db) q

module Stream = Algebra.Stream

let seq_of r = List.rev (Relation.fold (fun acc t -> t :: acc) [] r)

let check_same_relation label a b =
  Alcotest.(check (list Helpers.tuple))
    (label ^ ": iteration order") (seq_of a) (seq_of b);
  Alcotest.(check (list Helpers.tuple))
    (label ^ ": sorted contents") (Relation.to_list a) (Relation.to_list b)

let pair_rel name cols rows =
  Relation.of_list ~name
    (Schema.make (List.map (fun c -> Schema.attr c Vtype.int_full) cols) ~key:[])
    (List.map (fun (a, b) -> Tuple.of_list [ Value.int a; Value.int b ]) rows)

(* One representative chain: a hash join against a build relation
   (duplicate keys on both sides) and a projection that folds
   duplicates at the materialization. *)
let chain build src =
  Stream.project (Stream.natural_join (Stream.of_relation src) build) [ "x"; "z" ]

(* --------------------------------------------------------------- *)
(* Window-boundary units: single-row windows (the reference) against a
   sweep of window sizes, including sizes that don't divide the input,
   exceed it, or meet an empty stream. *)

let batch_sweep label src mk =
  let reference = Stream.materialize ~batch_size:1 [ mk src ] in
  List.iter
    (fun bs ->
      let batched = Stream.materialize ~batch_size:bs [ mk src ] in
      check_same_relation (Printf.sprintf "%s (batch_size %d)" label bs)
        reference batched)
    [ 2; 3; 7; 64; 100_000 ]

let test_boundaries () =
  let build =
    pair_rel "b" [ "x"; "z" ] (List.init 9 (fun i -> (i mod 5, i * 10)))
  in
  let mk src = chain build src in
  batch_sweep "empty source" (pair_rel "e" [ "x"; "y" ] []) mk;
  batch_sweep "no row joins"
    (pair_rel "f" [ "x"; "y" ] (List.init 10 (fun i -> (100 + i, -1))))
    mk;
  batch_sweep "batch larger than input"
    (pair_rel "g" [ "x"; "y" ] (List.init 4 (fun i -> (i, i + 3))))
    mk;
  batch_sweep "non-multiple cardinality"
    (pair_rel "h" [ "x"; "y" ] (List.init 10 (fun i -> (i mod 6, i))))
    mk

(* Paired join columns of different encodings (an integer against a
   string) cannot meet in an integer key table: the join refuses them
   with the error comparing the two values raises. *)
let test_join_class_mismatch () =
  let ints = pair_rel "i" [ "x"; "y" ] [ (1, 2) ] in
  let strs =
    Relation.of_list ~name:"s"
      (Schema.make [ Schema.attr "x" Vtype.string_any ] ~key:[])
      [ Tuple.of_list [ Value.str "1" ] ]
  in
  let raises_type_error label f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Type_error" label
    | exception Errors.Type_error _ -> ()
  in
  raises_type_error "Value.compare" (fun () ->
      Value.compare (Value.int 1) (Value.str "1"));
  raises_type_error "natural_join" (fun () ->
      Stream.materialize [ Stream.natural_join (Stream.of_relation ints) strs ])

let test_product_and_semijoin_windows () =
  let src = pair_rel "s" [ "x"; "y" ] (List.init 10 (fun i -> (i mod 4, i))) in
  (* disjoint columns: the join degenerates to a product *)
  let prod = pair_rel "p" [ "u"; "v" ] (List.init 3 (fun i -> (i, i + 50))) in
  batch_sweep "product windows" src (fun s ->
      Stream.natural_join (Stream.of_relation s) prod);
  (* no new columns: the join degenerates to a semijoin filter *)
  let semi = pair_rel "m" [ "x"; "y" ] [ (1, 1); (2, 4); (7, 7) ] in
  batch_sweep "semijoin windows" src (fun s ->
      Stream.natural_join (Stream.of_relation s) semi)

(* --------------------------------------------------------------- *)
(* Whole-pipeline differential.  The naive evaluator is the oracle for
   the result set at every window size and jobs count, across every
   strategy preset.  Iteration order must also match serial single-row
   windows unless the query can involve universal quantification
   (negation included: adaptation rewrites NOT-EXISTS into ALL), where
   the columnar divide reorders only the quotient relation. *)

let rec order_exact_formula = function
  | Calculus.F_true | Calculus.F_false | Calculus.F_atom _ -> true
  | Calculus.F_not _ | Calculus.F_all _ -> false
  | Calculus.F_and (a, b) | Calculus.F_or (a, b) ->
    order_exact_formula a && order_exact_formula b
  | Calculus.F_some (_, _, f) -> order_exact_formula f

let order_exact (q : Calculus.query) = order_exact_formula q.Calculus.body

let batch_independent_on seed =
  let db = Workload.Random_query.tiny_db ((seed * 7919) + 3) in
  let q = Workload.Random_query.generate db (seed + 17) in
  match Wellformed.check_query db q with
  | Error _ -> true (* generator contract tested elsewhere *)
  | Ok () ->
    let naive = Naive_eval.run db q in
    List.for_all
      (fun (sname, strategy) ->
        let run ~jobs ~batch_size =
          exec_q
            ~opts:
              (Exec_opts.make ~strategy ~jobs ~par_threshold:0 ~batch_size ())
            db q
        in
        let reference = run ~jobs:1 ~batch_size:1 in
        List.for_all
          (fun (jobs, batch_size) ->
            let r = run ~jobs ~batch_size in
            let sets_equal = Relation.equal_set naive r in
            let order_ok =
              (not (order_exact q))
              || List.equal Tuple.equal (seq_of reference) (seq_of r)
            in
            (sets_equal && order_ok)
            ||
            QCheck.Test.fail_reportf
              "batch_size=%d jobs=%d under %s, seed %d: %s@.%a@.naive %a@.\
               window-1 serial %a@.got %a"
              batch_size jobs sname seed
              (if sets_equal then "iteration order differs from window-1 serial"
               else "result set differs from naive")
              Calculus.pp_query q Relation.pp naive Relation.pp reference
              Relation.pp r)
          [ (1, 1); (1, 7); (1, 2048); (4, 1); (4, 7); (4, 2048) ])
      Strategy.all_presets

let test_batch_differential =
  QCheck.Test.make
    ~name:
      "random queries: batched engine matches naive result set (and \
       window-1 order without ALL)"
    ~count:60
    QCheck.(make Gen.(int_range 0 100_000))
    batch_independent_on

(* --------------------------------------------------------------- *)
(* The tuple table: a reference made during an execution is an ordinal,
   one per (relation, key).  Employee 1 and paper 1 share the key value
   1 in the fixture, which is what a self-join or a padding with a base
   list over another relation must never confuse. *)

let test_one_ordinal_per_element () =
  let db = Fixtures.make () in
  let employees = Database.find_relation db "employees"
  and papers = Database.find_relation db "papers" in
  let pool = Batch.create_pool () in
  let first = Batch.ordinals pool employees
  and second = Batch.ordinals pool employees
  and paper = Batch.ordinals pool papers in
  let key_one rel =
    List.find
      (fun t -> Value.equal (Tuple.get t 0) (Value.int 1))
      (Relation.to_list rel)
  in
  let e1 = key_one employees and p1 = key_one papers in
  let o = first e1 in
  Alcotest.(check int) "two structures, one ordinal" o (second e1);
  Alcotest.(check int) "an equal tuple (another scan's copy), one ordinal" o
    (second (Array.copy e1));
  Alcotest.(check bool) "the ordinal reads back the physical tuple" true
    (Batch.tuple_at pool o == e1);
  Alcotest.(check bool) "equal key in another relation, another ordinal" true
    (paper p1 <> o);
  Relation.iter
    (fun t -> Alcotest.(check int) "stable per element" (first t) (second t))
    employees;
  (* Whole executions: grouped (s1) and lazy (palermo) builds intern
     every element into one ordinal across all the structures of the
     running query, and each ordinal reads back an element of the
     relation its column references. *)
  List.iter
    (fun (label, strategy) ->
      let q = Workload.Queries.running_query db in
      let plan =
        Session.plan_only ~opts:(Exec_opts.make ~strategy ()) db q
      in
      let coll = Collection.create db strategy plan in
      Collection.run coll;
      let pool = Collection.batch_pool coll in
      let columns =
        List.concat_map
          (fun i ->
            List.concat_map
              (function
                | Collection.C_single (v, c) -> [ (v, c) ]
                | Collection.C_pair (v1, v2, c) -> [ (v1, c); (v2, c) ])
              (Collection.components coll i))
          (List.init (List.length plan.Plan.conjs) Fun.id)
        @ List.map
            (fun v -> (v, Collection.base_list coll v))
            (Plan.variable_order plan)
      in
      let by_key = Hashtbl.create 64 and seen_in = Hashtbl.create 64 in
      List.iteri
        (fun structure (v, (c : Batch.columns)) ->
          let target =
            match Schema.type_of c.Batch.c_schema v with
            | Vtype.TRef r -> r
            | _ -> Alcotest.fail "a reference column"
          in
          let rel = Database.find_relation db target in
          let i = Schema.index_of c.Batch.c_schema v in
          for r = 0 to c.Batch.c_rows - 1 do
            let o = Batch.cell c.Batch.c_cols.(i) r in
            let t = Batch.tuple_at pool o in
            Alcotest.(check bool) (label ^ ": an element of " ^ target) true
              (Relation.mem_tuple rel t);
            let key = (target, Tuple.key_of (Relation.schema rel) t) in
            (match Hashtbl.find_opt by_key key with
            | Some o' ->
              Alcotest.(check int) (label ^ ": one ordinal per element") o' o
            | None -> Hashtbl.replace by_key key o);
            Hashtbl.replace seen_in (o, structure) ()
          done)
        columns;
      let structures o =
        Hashtbl.fold (fun (o', _) () n -> if o = o' then n + 1 else n) seen_in 0
      in
      Alcotest.(check bool) (label ^ ": some element is in two structures")
        true
        (Hashtbl.fold (fun _ o acc -> acc || structures o > 1) by_key false);
      Alcotest.(check int) (label ^ ": distinct elements, distinct ordinals")
        (Hashtbl.length by_key)
        (List.length
           (List.sort_uniq compare
              (Hashtbl.fold (fun _ o acc -> o :: acc) by_key []))))
    [ ("s1", Strategy.s1); ("palermo", Strategy.palermo) ]

(* --------------------------------------------------------------- *)
(* Counters and options plumbing *)

let test_batch_counters_move () =
  let db = Workload.Suppliers.generate (Workload.Suppliers.scaled ~seed:5 1) in
  let q = Workload.Suppliers.ships_no_red_part db in
  let run batch_size =
    let before = Obs.Metrics.counter_value "algebra.batch.rows_in" in
    ignore
      (exec_q
         ~opts:(Exec_opts.make ~strategy:Strategy.s123 ~batch_size ())
         db q);
    Obs.Metrics.counter_value "algebra.batch.rows_in" - before
  in
  let single = run 1 in
  Alcotest.(check bool) "single-row windows feed the kernels" true (single > 0);
  Alcotest.(check int) "kernel input rows do not depend on the window"
    single (run 256)

let test_fingerprint_distinguishes_batch_size () =
  let fp batch_size =
    Exec_opts.fingerprint (Exec_opts.make ~batch_size ())
  in
  Alcotest.(check bool) "batch_size in the plan-cache key" true
    (fp 1 <> fp 2048)

let suite =
  [
    ( "batch",
      [
        Alcotest.test_case "kernel chains at window boundaries" `Quick
          test_boundaries;
        Alcotest.test_case "product/semijoin degenerate chains" `Quick
          test_product_and_semijoin_windows;
        Alcotest.test_case "batch counters move at any window size" `Quick
          test_batch_counters_move;
        Alcotest.test_case "join refuses mismatched column classes" `Quick
          test_join_class_mismatch;
        Alcotest.test_case "fingerprint separates batch sizes" `Quick
          test_fingerprint_distinguishes_batch_size;
        Alcotest.test_case "one ordinal per element, per relation" `Quick
          test_one_ordinal_per_element;
        QCheck_alcotest.to_alcotest test_batch_differential;
      ] );
  ]
