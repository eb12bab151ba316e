(* Property-based equivalence testing: on random databases and random
   well-typed queries, every strategy pipeline must return exactly the
   naive evaluator's answer.  This exercises normalization, adaptation,
   all four strategies and the three evaluation phases together. *)

open Pascalr
open Relalg

(* One-shot autocommit through a throwaway session: the migration shim
   for call sites that evaluate a query against a bare database. *)
let exec_q ?opts db q = Session.exec ?opts (Session.create db) q


let strategies_agree_on seed =
  let db = Workload.Random_query.tiny_db (seed * 7919) in
  let q = Workload.Random_query.generate db seed in
  match Wellformed.check_query db q with
  | Error e ->
    QCheck.Test.fail_reportf "generator produced ill-formed query: %s@.%a"
      e.Wellformed.message Calculus.pp_query q
  | Ok () ->
    let expected = Naive_eval.run db q in
    List.for_all
      (fun (sname, strategy) ->
        let actual = exec_q ~opts:(Exec_opts.make ~strategy ()) db q in
        Relation.equal_set expected actual
        ||
        QCheck.Test.fail_reportf
          "strategy %s differs on seed %d:@.%a@.expected %a@.got %a" sname seed
          Calculus.pp_query q Relation.pp expected Relation.pp actual)
      Strategy.all_presets

let test_random_equivalence =
  QCheck.Test.make ~name:"random queries: all strategies = naive" ~count:150
    QCheck.(make Gen.(int_range 0 100_000))
    strategies_agree_on

(* Round trip through the standard form preserves semantics on random
   queries too (after adaptation, so empty ranges are legal). *)
let roundtrip_on seed =
  let db = Workload.Random_query.tiny_db (seed * 104729) in
  let q = Workload.Random_query.generate db (seed + 31) in
  let adapted = Standard_form.adapt_query db q in
  let direct = Naive_eval.run db adapted in
  let via = Naive_eval.run db (Standard_form.to_query (Standard_form.of_query adapted)) in
  Relation.equal_set direct via

let test_roundtrip =
  QCheck.Test.make ~name:"standard form round trip on random queries"
    ~count:150
    QCheck.(make Gen.(int_range 0 100_000))
    roundtrip_on

(* Adaptation is a semantic no-op: the adapted query has the same answer
   as the original. *)
let adaptation_preserves seed =
  let db = Workload.Random_query.tiny_db (seed * 31337) in
  let q = Workload.Random_query.generate db (seed + 77) in
  let adapted = Standard_form.adapt_query db q in
  Relation.equal_set (Naive_eval.run db q) (Naive_eval.run db adapted)

let test_adaptation =
  QCheck.Test.make ~name:"adaptation preserves semantics" ~count:150
    QCheck.(make Gen.(int_range 0 100_000))
    adaptation_preserves

(* Empty ranges, guaranteed: clear one relation and force the query to
   range over it, so the Lemma-1 adaptation (Examples 2.1 and 2.2 —
   SOME over an empty range is false, ALL is true, a free variable over
   an empty range yields the empty answer) is exercised on every case
   rather than only when the torture test happens to hit one. *)
let empty_range_agree_on seed =
  let db = Workload.Random_query.tiny_db ((seed * 6151) + 3) in
  let victim = List.nth Workload.Random_query.relations (seed mod 4) in
  Relation.clear (Database.find_relation db victim);
  let q = Workload.Random_query.generate ~first_rel:victim db (seed + 13) in
  let expected = Naive_eval.run db q in
  List.for_all
    (fun (sname, strategy) ->
      Relation.equal_set expected (exec_q ~opts:(Exec_opts.make ~strategy ()) db q)
      ||
      QCheck.Test.fail_reportf
        "empty range over %s: %s differs on seed %d:@.%a" victim sname seed
        Calculus.pp_query q)
    Strategy.all_presets

let test_empty_ranges =
  QCheck.Test.make
    ~name:"queries ranging over an emptied relation: all strategies = naive"
    ~count:200
    QCheck.(make Gen.(int_range 0 100_000))
    empty_range_agree_on

(* Torture: random query, random database configuration — possibly an
   emptied relation, permanent indexes, half the elements of the indexed
   relations deleted, paged storage — and every strategy preset must
   still equal the naive evaluator.  The indexes are declared before
   any write, and the cleared relation is drawn from bits the index
   choice does not use, so indexed relations are written too: a
   stand-in that missed a write would answer from stale entries. *)
let torture seed =
  let db = Workload.Random_query.tiny_db ((seed * 48271) + 1) in
  (* Randomized environment, derived deterministically from the seed. *)
  if seed land 2 = 0 then
    List.iter
      (fun (rel, attr) ->
        ignore (Database.declare_index db rel ~on:[ attr ] : Secondary_index.t))
      [ ("timetable", "tcnr"); ("papers", "penr") ];
  if seed land 1 = 0 then
    Relation.clear
      (Database.find_relation db
         (List.nth Workload.Random_query.relations ((seed lsr 4) mod 4)));
  if seed land 8 = 0 then
    List.iter
      (fun name ->
        let rel = Database.find_relation db name in
        let schema = Relation.schema rel in
        List.iteri
          (fun i t ->
            if i land 1 = 0 then Relation.delete_key rel (Tuple.key_of schema t))
          (Relation.to_list rel))
      [ "timetable"; "papers" ];
  if seed land 4 = 0 then
    ignore (Database.attach_storage db ~pool_pages:((seed mod 7) + 2));
  let q = Workload.Random_query.generate db (seed + 3) in
  let expected = Naive_eval.run db q in
  List.for_all
    (fun (sname, strategy) ->
      Relation.equal_set expected (exec_q ~opts:(Exec_opts.make ~strategy ()) db q)
      ||
      QCheck.Test.fail_reportf "torture: %s differs on seed %d:@.%a" sname seed
        Calculus.pp_query q)
    Strategy.all_presets

let test_torture =
  QCheck.Test.make
    ~name:"torture: random db config (empty/indexes/paged) x strategies"
    ~count:120
    QCheck.(make Gen.(int_range 0 100_000))
    torture

(* The two combination engines are interchangeable: for every strategy
   preset, the streaming cost-ordered pipeline and the declaration-order
   baseline return the same result set, and both match naive. *)
let engines_agree_on seed =
  let db = Workload.Random_query.tiny_db ((seed * 15485863) + 5) in
  let q = Workload.Random_query.generate db (seed + 57) in
  let expected = Naive_eval.run db q in
  List.for_all
    (fun (sname, strategy) ->
      let ordered =
        exec_q ~opts:(Exec_opts.make ~strategy ~join_order:Combination.Cost_ordered ()) db q
      in
      let decl =
        exec_q ~opts:(Exec_opts.make ~strategy ~join_order:Combination.Declaration ()) db q
      in
      (Relation.equal_set expected ordered && Relation.equal_set expected decl)
      ||
      QCheck.Test.fail_reportf
        "combination engines disagree under %s on seed %d:@.%a" sname seed
        Calculus.pp_query q)
    Strategy.all_presets

let test_engines_agree =
  QCheck.Test.make
    ~name:"random queries: streaming and declaration engines = naive"
    ~count:120
    QCheck.(make Gen.(int_range 0 100_000))
    engines_agree_on

let suite =
  [
    ( "properties",
      [
        QCheck_alcotest.to_alcotest test_random_equivalence;
        QCheck_alcotest.to_alcotest test_roundtrip;
        QCheck_alcotest.to_alcotest test_adaptation;
        QCheck_alcotest.to_alcotest test_empty_ranges;
        QCheck_alcotest.to_alcotest test_torture;
        QCheck_alcotest.to_alcotest test_engines_agree;
      ] );
  ]
