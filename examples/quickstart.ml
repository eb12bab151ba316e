(* Quickstart: declare a database in PASCAL/R syntax, load some data,
   then query it through the Session front door — one-shot execution,
   every strategy preset, and a prepared query with $parameters served
   from the plan cache.

     dune exec examples/quickstart.exe *)

open Relalg

let schema_src =
  {|
TYPE colortype = (red, green, blue);

VAR fruits : RELATION <fid> OF
      RECORD
        fid : 1..100;
        fname : PACKED ARRAY [1..20] OF char;
        fcolor : colortype
      END;
    baskets : RELATION <bid, bfid> OF
      RECORD
        bid : 1..100;
        bfid : 1..100
      END;
|}

let () =
  (* 1. Declare the schema by parsing PASCAL/R declarations. *)
  let db = Pascalr_lang.Elaborate.database_of_string schema_src in
  let fruits = Database.find_relation db "fruits" in
  let baskets = Database.find_relation db "baskets" in
  let color = Database.find_enum db "colortype" in

  (* 2. Load data with the PASCAL/R insertion operator (:+). *)
  let fruit fid name c =
    Relation.insert fruits
      (Tuple.of_list [ Value.int fid; Value.str name; Value.enum color c ])
  in
  let basket bid fid =
    Relation.insert baskets (Tuple.of_list [ Value.int bid; Value.int fid ])
  in
  fruit 1 "apple" "red";
  fruit 2 "kiwi" "green";
  fruit 3 "cherry" "red";
  fruit 4 "plum" "blue";
  basket 1 1;
  basket 1 2;
  basket 1 3;
  basket 2 3;
  basket 3 2;
  basket 3 4;

  (* 3. Open a session: the database plus an LRU plan cache.  All
     evaluation goes through it; repeated queries skip planning. *)
  let session = Pascalr.Session.create db in

  (* 4. A selection with a universal quantifier: baskets all of whose
     fruits are red... expressed over basket entries b: there is no
     entry of the same basket with a non-red fruit. *)
  let query_src =
    {|[<b.bid> OF EACH b IN baskets:
        ALL x IN baskets
          ((x.bid <> b.bid)
           OR SOME f IN [EACH f IN fruits: f.fcolor = red] (f.fid = x.bfid))]|}
  in
  let query = Pascalr_lang.Elaborate.query_of_string db query_src in
  Fmt.pr "query:@.%a@.@." Pascalr.Calculus.pp_query query;

  (* 5. Evaluate with the naive reference evaluator and with every
     strategy preset of the paper.  Each preset compiles differently,
     so each occupies its own plan-cache entry. *)
  let reference = Pascalr.Naive_eval.run db query in
  Fmt.pr "naive answer: %a@."
    (Fmt.list ~sep:Fmt.comma Value.pp)
    (List.map (fun t -> Tuple.get t 0) (Relation.to_list reference));
  List.iter
    (fun (name, strategy) ->
      let opts = Pascalr.Exec_opts.make ~strategy () in
      let r = Pascalr.Session.exec ~opts session query in
      Fmt.pr "%-12s same answer: %b@." name (Relation.equal_set r reference))
    Pascalr.Strategy.all_presets;

  (* 6. Prepare once, execute many times: $lo is bound per execution;
     the plan is compiled exactly once and grounded at each call. *)
  let by_id =
    Pascalr_lang.Elaborate.query_of_string db
      {|[<f.fname> OF EACH f IN fruits: f.fid >= $lo]|}
  in
  let prepared = Pascalr.Session.prepare session by_id in
  Fmt.pr "@.prepared [fid >= $lo], parameters: %a@."
    (Fmt.list ~sep:Fmt.comma Fmt.string)
    (Pascalr.Prepared.params prepared);
  List.iter
    (fun lo ->
      let r =
        Pascalr.Prepared.exec ~params:[ ("lo", Value.int lo) ] prepared
      in
      Fmt.pr "  lo=%d -> %a@." lo
        (Fmt.list ~sep:Fmt.comma Value.pp)
        (List.map (fun t -> Tuple.get t 0) (Relation.to_list r)))
    [ 1; 3; 4 ];

  (* 7. A cached plan stays valid while the emptiness answers it was
     planned under hold.  The universal query asked whether baskets and
     the red fruits are empty: inserting a green fruit changes neither
     answer, so its next execution hits; clearing fruits empties the
     red fruits, so its next execution re-plans (the empty-range
     adaptation now rewrites SOME over the empty range to false). *)
  let show what =
    let s = Pascalr.Session.cache_stats session in
    Fmt.pr "%-26s %d plans, %d hits, %d misses, %d invalidations@." what
      (Pascalr.Session.cache_length session)
      s.Pascalr.Plan_cache.hits s.Pascalr.Plan_cache.misses
      s.Pascalr.Plan_cache.invalidations
  in
  Fmt.pr "@.";
  show "plan cache:";
  fruit 5 "grape" "green";
  ignore (Pascalr.Session.exec session query : Relation.t);
  show "after inserting a fruit:";
  Relation.clear fruits;
  let r = Pascalr.Session.exec session query in
  show "after clearing fruits:";
  Fmt.pr "with no fruits: %d baskets, naive agrees: %b@."
    (Relation.cardinality r)
    (Relation.equal_set r (Pascalr.Naive_eval.run db query));

  (* 8. Ask the planner what it would do. *)
  let decision = Pascalr.Planner.choose db query in
  Fmt.pr "@.planner:@.%a@." Pascalr.Planner.pp_decision decision
