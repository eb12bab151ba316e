(* The multicore execution layer: domain-pool mechanics (reuse, jobs=1
   bypass, exception propagation), determinism of the stream kernels'
   window fan-out at the parallelism threshold, and a QCheck
   differential pinning the jobs-independence contract — identical
   result tuples in identical iteration order for jobs 1, 2 and 4
   across every strategy preset. *)

open Relalg
open Pascalr

(* One-shot autocommit through a throwaway session: the migration shim
   for call sites that evaluate a query against a bare database. *)
let exec_q ?opts db q = Session.exec ?opts (Session.create db) q


(* Unsorted contents in iteration order — the strongest determinism
   observation: parallel chunk replay must reproduce the serial
   insertion sequence exactly, so even hashtable iteration order is
   jobs-independent. *)
let seq_of r = List.rev (Relation.fold (fun acc t -> t :: acc) [] r)

let check_same_relation label a b =
  Alcotest.(check (list Helpers.tuple)) (label ^ ": iteration order") (seq_of a) (seq_of b);
  Alcotest.(check (list Helpers.tuple)) (label ^ ": sorted contents")
    (Relation.to_list a) (Relation.to_list b)

(* --------------------------------------------------------------- *)
(* Pool mechanics *)

let test_jobs1_bypass () =
  let before = Domain_pool.spawned_domains () in
  let order = ref [] in
  Domain_pool.run_tasks ~jobs:1 8 (fun i -> order := i :: !order);
  Alcotest.(check (list int))
    "serial path runs tasks in index order" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.rev !order);
  Alcotest.(check int) "jobs=1 spawns no domains" before
    (Domain_pool.spawned_domains ())

let test_parallel_map () =
  let input = Array.init 100 Fun.id in
  let out = Domain_pool.parallel_map ~jobs:4 (fun x -> x * x) input in
  Alcotest.(check (array int))
    "maps every element" (Array.map (fun x -> x * x) input) out

let test_pool_reuse () =
  ignore (Domain_pool.parallel_map ~jobs:3 Fun.id (Array.init 32 Fun.id));
  let after_first = Domain_pool.spawned_domains () in
  ignore (Domain_pool.parallel_map ~jobs:3 Fun.id (Array.init 32 Fun.id));
  Alcotest.(check int) "second run reuses the pooled workers" after_first
    (Domain_pool.spawned_domains ())

let test_shutdown_and_respawn () =
  (* Park some workers, quiesce them, and confirm the next parallel run
     lazily respawns a working pool: the spawn counter advances (fresh
     domains, not reused ones) and results stay correct. *)
  ignore (Domain_pool.parallel_map ~jobs:3 Fun.id (Array.init 32 Fun.id));
  let before = Domain_pool.spawned_domains () in
  Domain_pool.shutdown ();
  Domain_pool.shutdown ();
  (* idempotent on an empty pool *)
  Alcotest.(check int) "shutdown spawns nothing" before
    (Domain_pool.spawned_domains ());
  let input = Array.init 64 Fun.id in
  let out = Domain_pool.parallel_map ~jobs:3 (fun x -> x + 1) input in
  Alcotest.(check (array int)) "respawned pool computes correctly"
    (Array.map (fun x -> x + 1) input)
    out;
  Alcotest.(check bool) "respawn used fresh domains" true
    (Domain_pool.spawned_domains () > before)

let test_exception_lowest_index () =
  let ran = Array.make 6 false in
  let raised =
    match
      Domain_pool.run_tasks ~jobs:4 6 (fun i ->
          ran.(i) <- true;
          if i = 1 then failwith "task-1";
          if i = 3 then failwith "task-3")
    with
    | () -> None
    | exception Failure m -> Some m
  in
  Alcotest.(check (option string))
    "lowest failing task index wins at the join" (Some "task-1") raised;
  Alcotest.(check (array bool))
    "one failure does not cancel the other tasks" (Array.make 6 true) ran

let test_typed_errors_propagate () =
  (match
     Domain_pool.run_tasks ~jobs:4 4 (fun i ->
         if i = 2 then raise (Errors.Io_error "disk gone"))
   with
  | () -> Alcotest.fail "expected Io_error from worker"
  | exception Errors.Io_error m ->
    Alcotest.(check string) "Io_error payload survives the join" "disk gone" m);
  match
    Domain_pool.run_tasks ~jobs:4 4 (fun i ->
        if i = 0 then raise (Errors.Corruption "bad page"))
  with
  | () -> Alcotest.fail "expected Corruption from worker"
  | exception Errors.Corruption m ->
    Alcotest.(check string) "Corruption payload survives the join" "bad page" m

let test_chunk_boundaries () =
  List.iter
    (fun n ->
      let arr = Array.init n Fun.id in
      List.iter
        (fun pieces ->
          let chunks = Domain_pool.chunk ~pieces arr in
          let label = Printf.sprintf "n=%d pieces=%d" n pieces in
          Alcotest.(check (array int))
            (label ^ ": concatenation preserves order") arr
            (Array.concat (Array.to_list chunks));
          let sizes = Array.map Array.length chunks in
          let mn = Array.fold_left min max_int sizes
          and mx = Array.fold_left max 0 sizes in
          Alcotest.(check bool)
            (label ^ ": chunk sizes balanced within 1")
            true
            (mx - mn <= 1))
        [ 1; 3; 4; 7 ])
    [ 0; 1; 7; 8; 9; 63; 64; 65 ]

(* --------------------------------------------------------------- *)
(* Partitioned operators: threshold gating and determinism *)

let unary name xs =
  Relation.of_list ~name
    (Schema.make [ Schema.attr "x" Vtype.int_full ] ~key:[])
    (List.map (fun a -> Tuple.of_list [ Value.int a ]) xs)

let pair_rel name cols rows =
  Relation.of_list ~name
    (Schema.make (List.map (fun c -> Schema.attr c Vtype.int_full) cols) ~key:[])
    (List.map (fun (a, b) -> Tuple.of_list [ Value.int a; Value.int b ]) rows)

let par = { Domain_pool.jobs = 4; threshold = 8 }

let even_value t =
  match Tuple.get t 0 with Value.VInt x -> x mod 2 = 0 | _ -> false

module Stream = Algebra.Stream

let test_select_threshold_gating () =
  (* A selection as a stream: the semijoin filter keeping the even
     values.  Source cardinalities straddle the threshold: below it the
     materialization must stay on the serial path (no algebra.par
     tally), at and above it the windows fan out — and both produce the
     serial relation exactly.  Single-row windows give every domain
     some windows even on the small sources. *)
  let evens = unary "evens" (List.init 505 (fun i -> 2 * i)) in
  List.iter
    (fun n ->
      let r = unary "r" (List.init n (fun i -> (i * 7) mod 1009)) in
      let select ?par () =
        Stream.materialize ?par ~batch_size:1
          [ Stream.natural_join (Stream.of_relation r) evens ]
      in
      let serial = select () in
      let before = Obs.Metrics.counter_value "algebra.par.stream" in
      let parallel = select ~par () in
      let fired = Obs.Metrics.counter_value "algebra.par.stream" - before in
      Alcotest.(check int)
        (Printf.sprintf "n=%d: partitioned iff n >= threshold" n)
        (if n >= par.Domain_pool.threshold then 1 else 0)
        fired;
      Alcotest.(check int)
        (Printf.sprintf "n=%d: keeps exactly the even values" n)
        (Relation.fold (fun k t -> if even_value t then k + 1 else k) 0 r)
        (Relation.cardinality serial);
      check_same_relation (Printf.sprintf "select n=%d" n) serial parallel)
    [ 0; 7; 8; 9; 200 ]

let test_join_and_product_deterministic () =
  let a =
    pair_rel "a" [ "x"; "y" ] (List.init 60 (fun i -> (i mod 11, i)))
  in
  let b =
    pair_rel "b" [ "x"; "z" ] (List.init 45 (fun i -> (i mod 13, i * 2)))
  in
  let c =
    pair_rel "c" [ "u"; "v" ] (List.init 20 (fun i -> (i, i + 100)))
  in
  let par = { Domain_pool.jobs = 4; threshold = 1 } in
  List.iter
    (fun (label, mk) ->
      List.iter
        (fun batch_size ->
          check_same_relation
            (Printf.sprintf "%s (batch_size %d)" label batch_size)
            (Stream.materialize ~batch_size [ mk () ])
            (Stream.materialize ~par ~batch_size [ mk () ]))
        [ 1; 7; 2048 ])
    [
      ("natural join", fun () -> Stream.natural_join (Stream.of_relation a) b);
      ("product", fun () -> Stream.product (Stream.of_relation a) c);
      ("project", fun () -> Stream.project (Stream.of_relation a) [ "x" ]);
    ]

(* --------------------------------------------------------------- *)
(* Whole-pipeline jobs-independence: the differential of the issue.
   Identical tuples in identical order for jobs 1 vs 2 vs 4, across
   every strategy preset, with par_threshold 0 so even the tiny
   property databases exercise the partitioned paths. *)

let jobs_independent_on seed =
  let db = Workload.Random_query.tiny_db ((seed * 9973) + 11) in
  let q = Workload.Random_query.generate db (seed + 5) in
  match Wellformed.check_query db q with
  | Error _ -> true (* generator contract tested elsewhere *)
  | Ok () ->
    List.for_all
      (fun (sname, strategy) ->
        let run jobs =
          exec_q
            ~opts:(Exec_opts.make ~strategy ~jobs ~par_threshold:0 ())
            db q
        in
        let reference = run 1 in
        List.for_all
          (fun jobs ->
            let r = run jobs in
            List.equal Tuple.equal (seq_of reference) (seq_of r)
            ||
            QCheck.Test.fail_reportf
              "jobs=%d diverges from serial under %s, seed %d:@.%a@.serial %a@.got %a"
              jobs sname seed Calculus.pp_query q Relation.pp reference
              Relation.pp r)
          [ 2; 4 ])
      Strategy.all_presets

let test_jobs_differential =
  QCheck.Test.make
    ~name:"random queries: jobs 1/2/4 identical tuples, identical order"
    ~count:60
    QCheck.(make Gen.(int_range 0 100_000))
    jobs_independent_on

(* --------------------------------------------------------------- *)
(* Metric histograms across the pool: the bucketed-histogram merge is
   commutative and associative, so the order in which worker deltas
   reach the caller's registry cannot be observed — and actually
   routing the observations through a jobs=4 pool lands on the same
   pooled histogram as observing them serially. *)

(* Deterministic pseudo-random values: an LCG seeded per worker, spread
   over several histogram decades.  Dyadic rationals (x / 8) so pooled
   sums are exact in binary floating point — snapshot equality across
   merge orders can then be bit-strict. *)
let worker_values seed w =
  let state = ref ((seed * 48271 + w * 69621 + 1) land 0x3FFFFFFF) in
  let next () =
    state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
    float_of_int (!state mod 10_000) /. 8.0
  in
  List.init (3 + ((seed + w) mod 5)) (fun _ -> next ())

(* Per-seed instrument name: worker-domain registries survive across
   property iterations, and a delta's histogram min/max come from the
   worker's cumulative "after" state — a reused name would leak earlier
   iterations' extremes into this one's delta. *)
let histo_name seed = Printf.sprintf "h.pool.merge.%d" seed

(* One worker's delta, produced on the main domain with the same
   diff discipline the pool join uses. *)
let delta_of name values =
  let before = Obs.Metrics.snapshot () in
  List.iter (Obs.Metrics.observe name) values;
  let after = Obs.Metrics.snapshot () in
  Obs.Metrics.diff ~before ~after

let merged_snapshot deltas =
  Obs.Metrics.reset ();
  List.iter Obs.Metrics.merge deltas;
  Obs.Metrics.snapshot ()

let permutations_of xs =
  (* A few structurally different orders; full factorial is overkill. *)
  [ xs; List.rev xs; (match xs with [] -> [] | x :: tl -> tl @ [ x ]) ]

let merge_order_invisible_on seed =
  let workers = 4 in
  let name = histo_name seed in
  let values = List.init workers (worker_values seed) in
  Obs.Metrics.reset ();
  let deltas = List.map (delta_of name) values in
  let reference = merged_snapshot deltas in
  let all_orders_agree =
    List.for_all
      (fun perm -> merged_snapshot perm = reference)
      (permutations_of deltas)
  in
  (* The real pool: observe each worker's values inside a jobs=4 task;
     worker-domain registries reach this one via merge at the join. *)
  Obs.Metrics.reset ();
  let varr = Array.of_list values in
  Domain_pool.run_tasks ~jobs:4 workers (fun i ->
      List.iter (Obs.Metrics.observe name) varr.(i));
  let pooled = Obs.Metrics.snapshot () in
  let pooled_matches =
    Obs.Metrics.find pooled name = Obs.Metrics.find reference name
  in
  let flat = List.concat values in
  let lo = List.fold_left min infinity flat
  and hi = List.fold_left max neg_infinity flat in
  let quantiles_bounded =
    List.for_all
      (fun q ->
        match Obs.Metrics.histogram_quantile reference name q with
        | Some v -> lo <= v && v <= hi
        | None -> false)
      [ 0.0; 0.5; 0.95; 0.99; 1.0 ]
  in
  Obs.Metrics.reset ();
  (all_orders_agree
  || QCheck.Test.fail_reportf "merge order observable at seed %d" seed)
  && (pooled_matches
     || QCheck.Test.fail_reportf
          "jobs=4 pooled histogram differs from serial merge at seed %d" seed)
  && (quantiles_bounded
     || QCheck.Test.fail_reportf
          "pooled quantile outside pooled min/max at seed %d" seed)

let test_merge_permutation =
  QCheck.Test.make
    ~name:"histogram worker deltas: merge order invisible, quantiles bounded"
    ~count:100
    QCheck.(make Gen.(int_range 0 100_000))
    merge_order_invisible_on

(* --------------------------------------------------------------- *)
(* Options plumbing *)

let test_fingerprint_distinguishes_parallelism () =
  let fp ?jobs ?par_threshold () =
    Exec_opts.fingerprint (Exec_opts.make ?jobs ?par_threshold ())
  in
  Alcotest.(check bool) "jobs in the plan-cache key" true
    (fp ~jobs:1 () <> fp ~jobs:4 ());
  Alcotest.(check bool) "par_threshold in the plan-cache key" true
    (fp ~jobs:4 ~par_threshold:4096 () <> fp ~jobs:4 ~par_threshold:64 ())

let suite =
  [
    ( "parallel",
      [
        Alcotest.test_case "jobs=1 bypasses the pool" `Quick test_jobs1_bypass;
        Alcotest.test_case "parallel_map covers every element" `Quick
          test_parallel_map;
        Alcotest.test_case "pool domains are reused across runs" `Quick
          test_pool_reuse;
        Alcotest.test_case "shutdown joins workers, next run respawns" `Quick
          test_shutdown_and_respawn;
        Alcotest.test_case "lowest-index exception wins at the join" `Quick
          test_exception_lowest_index;
        Alcotest.test_case "typed storage errors propagate from workers" `Quick
          test_typed_errors_propagate;
        Alcotest.test_case "chunking is ordered and balanced" `Quick
          test_chunk_boundaries;
        Alcotest.test_case "select partitions exactly at the threshold" `Quick
          test_select_threshold_gating;
        Alcotest.test_case "join/product/project are jobs-deterministic" `Quick
          test_join_and_product_deterministic;
        Alcotest.test_case "fingerprint separates parallelism settings" `Quick
          test_fingerprint_distinguishes_parallelism;
        QCheck_alcotest.to_alcotest test_merge_permutation;
        QCheck_alcotest.to_alcotest test_jobs_differential;
      ] );
  ]
