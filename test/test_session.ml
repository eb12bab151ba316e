(* The Session front door: plan-cache behaviour (repeat hits,
   invalidation exactly when an emptiness answer flips, LRU eviction,
   per-option and alpha-renaming keys), prepared-query parameter
   grounding, and the PREPARE/EXECUTE statement surface of the
   language. *)

open Pascalr
open Relalg

(* One-shot autocommit through a throwaway session: the migration shim
   for call sites that evaluate a query against a bare database. *)
let exec_q ?opts db q = Session.exec ?opts (Session.create db) q


let mk_db () = Workload.Suppliers.generate Workload.Suppliers.default_params

let cache_stats =
  let pp ppf (s : Plan_cache.stats) =
    Fmt.pf ppf "{hits=%d; misses=%d; evictions=%d; invalidations=%d}"
      s.Plan_cache.hits s.Plan_cache.misses s.Plan_cache.evictions
      s.Plan_cache.invalidations
  in
  Alcotest.testable pp ( = )

(* ---------------------------------------------------------------- *)
(* Repeated execution hits the cache and skips the planning phases. *)

let test_repeat_hits () =
  let db = mk_db () in
  let q = Workload.Suppliers.ships_all_parts db in
  let s = Session.create db in
  let r1, root1 = Session.exec_traced s q in
  let r2, root2 = Session.exec_traced s q in
  Alcotest.(check bool)
    "same answer on re-execution" true
    (Relation.equal_set r1.Exec_result.result r2.Exec_result.result);
  let stats = Session.cache_stats s in
  Alcotest.(check int) "exactly one miss" 1 stats.Plan_cache.misses;
  Alcotest.(check bool) "subsequent lookups hit" true (stats.Plan_cache.hits >= 1);
  Alcotest.(check int) "one cached plan" 1 (Session.cache_length s);
  (* Cold trace plans; warm trace goes straight to evaluation. *)
  Alcotest.(check bool) "cold run plans" true (Obs.Trace.find root1 "plan" <> None);
  Alcotest.(check bool) "warm run skips plan" true (Obs.Trace.find root2 "plan" = None);
  Alcotest.(check bool)
    "warm run skips standard form" true
    (Obs.Trace.find root2 "standard_form" = None);
  Alcotest.(check bool)
    "warm run still evaluates" true
    (Obs.Trace.find root2 "collection" <> None)

(* ---------------------------------------------------------------- *)
(* A cached plan stays valid while the emptiness answers it was planned
   under hold.  ships_all_parts asks about parts and shipments (its
   quantifier ranges), never about suppliers (its free range). *)

let stats ~hits ~misses ~invalidations =
  { Plan_cache.hits; misses; evictions = 0; invalidations }

let agrees_naive db q r =
  Alcotest.(check bool) "answer = naive" true
    (Relation.equal_set (Naive_eval.run db q) r)

let test_unasked_write_keeps_plan () =
  let db = mk_db () in
  let q = Workload.Suppliers.ships_all_parts db in
  let s = Session.create db in
  ignore (Session.exec s q : Relation.t);
  Relation.insert
    (Database.find_relation db "suppliers")
    (Tuple.of_list
       [ Value.int 998; Value.str "latecomer"; Workload.Suppliers.london db ]);
  (* An asked range that stays non-empty keeps the plan too. *)
  Relation.insert
    (Database.find_relation db "shipments")
    (Tuple.of_list [ Value.int 998; Value.int 1; Value.int 5 ]);
  let r = Session.exec s q in
  Alcotest.check cache_stats "one hit, no invalidation"
    (stats ~hits:1 ~misses:1 ~invalidations:0)
    (Session.cache_stats s);
  agrees_naive db q r

let test_flip_replans () =
  let db = mk_db () in
  let q = Workload.Suppliers.ships_all_parts db in
  let s = Session.create db in
  let parts = Database.find_relation db "parts" in
  let saved = Relation.to_list parts in
  ignore (Session.exec s q : Relation.t);
  Relation.clear parts;
  let r, root = Session.exec_traced s q in
  Alcotest.check cache_stats "emptied range: one invalidation"
    (stats ~hits:0 ~misses:1 ~invalidations:1)
    (Session.cache_stats s);
  Alcotest.(check bool)
    "the stale plan is rebuilt" true
    (Obs.Trace.find root "plan" <> None);
  agrees_naive db q r.Exec_result.result;
  Relation.insert_list parts saved;
  let r = Session.exec s q in
  Alcotest.check cache_stats "refilled range: a second invalidation"
    (stats ~hits:0 ~misses:1 ~invalidations:2)
    (Session.cache_stats s);
  agrees_naive db q r

(* A plan cached inside a write transaction recorded the transaction's
   private relation states.  After an abort, the store's papers can
   reach the private copy's version with other contents; the plan must
   still be re-checked (the states differ), never trusted on the
   version alone. *)
let test_abort_then_same_version () =
  let db = Workload.University.generate Workload.University.default_params in
  let q = Workload.Queries.running_query db in
  let s = Session.create db in
  let papers_empty_answer = ref 0 in
  (try
     Session.write s (fun txn ->
         Session.Txn.clear txn "papers";
         papers_empty_answer :=
           Relation.cardinality (Session.Txn.exec txn q);
         Alcotest.(check int) "txn's copy is one version ahead"
           (Relation.version (Database.find_relation db "papers") + 1)
           (Relation.version
              (Database.find_relation (Session.Txn.database txn) "papers"));
         raise Exit)
   with Exit -> ());
  let papers = Database.find_relation db "papers" in
  let victim = List.hd (Relation.to_list papers) in
  Relation.delete_key papers (Tuple.key_of (Relation.schema papers) victim);
  let r = Session.exec s q in
  let naive = Naive_eval.run db q in
  Alcotest.(check bool)
    "the test discriminates: papers = [] answers differently" true
    (!papers_empty_answer <> Relation.cardinality naive);
  Alcotest.(check int) "re-planned" 1
    (Session.cache_stats s).Plan_cache.invalidations;
  agrees_naive db q r

(* ---------------------------------------------------------------- *)
(* LRU eviction: with capacity 2, the least recently used entry is the
   one displaced. *)

let test_lru_eviction () =
  let db = mk_db () in
  let qa = Workload.Suppliers.ships_all_parts db in
  let qb = Workload.Suppliers.ships_all_red_parts db in
  let qc = Workload.Suppliers.london_ships_some_red db in
  let s = Session.create ~cache_capacity:2 db in
  let prep q = ignore (Session.prepare s q) in
  prep qa;
  (* cache: A *)
  prep qb;
  (* cache: A B *)
  prep qa;
  (* hit; A now more recent than B *)
  prep qc;
  (* full: evicts B, the LRU entry      *)
  Alcotest.(check int) "capacity respected" 2 (Session.cache_length s);
  prep qa;
  (* still cached: hit                  *)
  prep qb;
  (* was evicted: misses again          *)
  Alcotest.check cache_stats "LRU accounting"
    { Plan_cache.hits = 2; misses = 4; evictions = 2; invalidations = 0 }
    (Session.cache_stats s)

(* ---------------------------------------------------------------- *)
(* Cache keys: distinct per strategy and join order, but insensitive
   to the spelling of range variables (alpha-canonical digests). *)

let test_keys_per_options () =
  let db = mk_db () in
  let q = Workload.Suppliers.ships_all_parts db in
  let s = Session.create db in
  ignore (Session.prepare s q);
  ignore
    (Session.prepare ~opts:(Exec_opts.make ~strategy:Strategy.palermo ()) s q);
  ignore
    (Session.prepare
       ~opts:(Exec_opts.make ~join_order:Combination.Declaration ())
       s q);
  Alcotest.(check int) "three distinct keys" 3 (Session.cache_length s);
  Alcotest.(check int) "no spurious hits" 3
    (Session.cache_stats s).Plan_cache.misses

let test_alpha_renaming_shares_key () =
  let open Calculus in
  let db = mk_db () in
  let spelled free_v all_v some_v =
    {
      free = [ (free_v, base "suppliers") ];
      select = [ (free_v, "sname") ];
      body =
        f_all all_v (base "parts")
          (f_some some_v (base "shipments")
             (f_and
                (eq (attr some_v "hsnr") (attr free_v "snr"))
                (eq (attr some_v "hpnr") (attr all_v "pnr"))));
    }
  in
  let s = Session.create db in
  ignore (Session.prepare s (spelled "s" "p" "h"));
  ignore (Session.prepare s (spelled "zebra" "quux" "w"));
  let stats = Session.cache_stats s in
  Alcotest.(check int) "one plan serves both spellings" 1
    (Session.cache_length s);
  Alcotest.(check int) "renamed query hits" 1 stats.Plan_cache.hits;
  Alcotest.(check int) "only the first misses" 1 stats.Plan_cache.misses

(* ---------------------------------------------------------------- *)
(* Shapes: every literal compared against an attribute becomes a
   placeholder of one cached plan per query shape, which each execution
   grounds with its own literals. *)

let gadgets_db () =
  let db = Database.create () in
  let color = Database.declare_enum db "colortype" [| "red"; "green"; "blue" |] in
  let colortype = Vtype.enum "colortype" color.Value.labels in
  let small = Vtype.int_range 1 99 in
  let rel name attrs rows =
    let r =
      Database.declare_relation db ~name
        (Schema.make (List.map (fun (a, ty) -> Schema.attr a ty) attrs)
           ~key:[ fst (List.hd attrs) ])
    in
    List.iter (fun row -> Relation.insert r (Tuple.of_list row)) rows
  in
  let gadget n size name c spare =
    [ Value.int n; Value.int size; Value.str name; Value.enum color c; Value.bool spare ]
  in
  rel "gadgets"
    [ ("gnr", small); ("gsize", small); ("gname", Vtype.string_any);
      ("gcolor", colortype); ("gspare", Vtype.boolean) ]
    [
      gadget 1 5 "cam" "red" true;
      gadget 2 3 "bolt" "green" false;
      gadget 3 9 "cog" "red" false;
      gadget 4 1 "nut" "blue" true;
    ];
  rel "bins"
    [ ("bnr", small); ("bcolor", colortype) ]
    [ [ Value.int 1; Value.enum color "red" ]; [ Value.int 2; Value.enum color "blue" ] ];
  db

(* The text parser has no boolean operand, so the boolean literal is
   conjoined to the elaborated query. *)
let gadget_query db ?(attr = "gnr") ?(op = ">=") ?(quant = "SOME")
    ?(inner = "b IN bins (b.bcolor") (n, name, spare, color) =
  let q =
    Pascalr_lang.Elaborate.query_of_string db
      (Printf.sprintf
         "[<g.gnr> OF EACH g IN gadgets: (g.%s %s %d) AND (g.gname <> '%s') \
          AND (g.gcolor <> %s) AND (%s %s = g.gcolor))]"
         attr op n name color quant inner)
  in
  let open Calculus in
  { q with body = f_and q.body (eq (attr "g" "gspare") (const (Value.bool spare))) }

let first_literals = (1, "cam", true, "green")

let test_literals_share_plan () =
  let db = gadgets_db () in
  let s = Session.create db in
  let queries =
    List.map (gadget_query db)
      [
        first_literals;
        (2, "bolt", false, "red");
        (0, "x", true, "blue");
        (3, "nut", false, "green");
        (4, "cog", true, "red");
      ]
  in
  List.iter (fun q -> agrees_naive db q (Session.exec s q)) queries;
  let n = List.length queries in
  Alcotest.(check int) "one plan for the shape" 1 (Session.cache_length s);
  Alcotest.check cache_stats "the first text misses, the others hit"
    (stats ~hits:(n - 1) ~misses:1 ~invalidations:0)
    (Session.cache_stats s);
  let distinct qs =
    List.length (List.sort_uniq String.compare (List.map Session.digest qs))
  in
  Alcotest.(check int) "one digest" 1 (distinct queries);
  let variants =
    [
      gadget_query db first_literals;
      gadget_query db ~op:">" first_literals;
      gadget_query db ~attr:"gsize" first_literals;
      gadget_query db ~inner:"b IN gadgets (b.gcolor" first_literals;
      gadget_query db ~quant:"ALL" first_literals;
    ]
  in
  Alcotest.(check int) "operator, attribute, relation and quantifier \
                        each change the digest"
    (List.length variants) (distinct variants)

let test_literals_beside_params () =
  let db = gadgets_db () in
  let s = Session.create db in
  let q =
    Pascalr_lang.Elaborate.query_of_string db
      "[<g.gnr> OF EACH g IN gadgets: (g.gcolor = red) AND (g.gsize >= $lo)]"
  in
  let prep = Session.prepare s q in
  Alcotest.(check (list string)) "only the caller's params" [ "lo" ]
    (Prepared.params prep);
  Alcotest.check_raises "an internal name is not a parameter"
    (Prepared.Unknown_parameter "%c0") (fun () ->
      ignore
        (Prepared.exec ~params:[ ("lo", Value.int 1); ("%c0", Value.int 1) ] prep));
  let printed = Fmt.str "%a" Plan.pp (Prepared.plan prep) in
  let contains sub =
    let n = String.length sub in
    let rec at i =
      i + n <= String.length printed && (String.sub printed i n = sub || at (i + 1))
    in
    at 0
  in
  Alcotest.(check bool) "the plan prints the literal" true (contains "red");
  Alcotest.(check bool) "and no placeholder" false (contains "%c");
  Alcotest.(check bool) "the caller's parameter stays" true (contains "$lo");
  List.iter
    (fun lo ->
      let ground =
        Calculus.subst_query (Calculus.Var_map.singleton "lo" (Value.int lo)) q
      in
      agrees_naive db ground (Prepared.exec ~params:[ ("lo", Value.int lo) ] prep))
    [ 1; 5; 10 ]

(* A constant compared against a constant is no literal: it stays in
   the shape, and standard form folds it. *)
let test_constant_atoms_fold () =
  let open Calculus in
  let db = gadgets_db () in
  let s = Session.create db in
  let with_truth x =
    {
      free = [ ("g", base "gadgets") ];
      select = [ ("g", "gnr") ];
      body = f_and (ge (attr "g" "gsize") (cint 3)) (eq (cint 1) (cint x));
    }
  in
  let conjs x = (Prepared.plan (Session.prepare s (with_truth x))).Plan.conjs in
  Alcotest.(check int) "1 = 2 folds the matrix to false" 0 (List.length (conjs 2));
  Alcotest.(check int) "1 = 1 folds away" 1 (List.length (conjs 1));
  Alcotest.(check bool) "the folded constants are part of the shape" true
    (Session.digest (with_truth 1) <> Session.digest (with_truth 2));
  agrees_naive db (with_truth 2) (Session.exec s (with_truth 2))

(* Strategy 3 extends a quantified range whose restriction mentions a
   $param: the range is assumed non-empty, and an execution whose
   binding makes it empty re-plans the ground query.  The generator
   writes papers for 1970-1985 only, so 1990 empties it. *)
let test_param_range_extension () =
  let db = Workload.University.generate Workload.University.small_params in
  let q =
    Pascalr_lang.Elaborate.query_of_string db
      "[<e.enr> OF EACH e IN employees: (e.estatus = professor) AND (ALL p IN \
       papers ((p.pyear <> $y) OR (e.enr < p.penr)))]"
  in
  List.iter
    (fun (name, strategy) ->
      let opts = Exec_opts.make ~strategy () in
      let s = Session.create db in
      let prefix = (Prepared.plan (Session.prepare ~opts s q)).Plan.prefix in
      let alls =
        List.filter (fun e -> e.Normalize.q = Normalize.Q_all) prefix
      in
      if strategy.Strategy.range_extension || strategy.Strategy.cnf_extension
      then begin
        Alcotest.(check bool) (name ^ ": no ALL over bare papers") true
          (List.for_all
             (fun e -> e.Normalize.range.Calculus.restriction <> None)
             alls);
        if strategy.Strategy.quantifier_push then
          Alcotest.(check int) (name ^ ": no ALL left in the prefix") 0
            (List.length alls)
      end;
      List.iter
        (fun y ->
          let params = [ ("y", Value.int y) ] in
          let r = Session.exec_report ~opts ~params s q in
          agrees_naive db
            (Calculus.subst_query (Calculus.Var_map.singleton "y" (Value.int y)) q)
            r.Exec_result.result;
          if y = 1990 && strategy.Strategy.range_extension then
            Alcotest.(check string) (name ^ ": an empty extension regrounds")
              "reground"
              (Exec_result.cache_outcome_to_string r.Exec_result.cache))
        [ 1975; 1990 ])
    Strategy.all_presets

(* ---------------------------------------------------------------- *)
(* Parameters: a prepared query grounded with bindings answers exactly
   like the substituted query run from scratch; bad bindings raise. *)

let param_query =
  let open Calculus in
  {
    free = [ ("s", base "suppliers") ];
    select = [ ("s", "sname") ];
    body = mk_atom (attr "s" "snr") Value.Ge (param "lo");
  }

let test_params_ground () =
  let db = mk_db () in
  let s = Session.create db in
  let prep = Session.prepare s param_query in
  Alcotest.(check (list string)) "declared params" [ "lo" ] (Prepared.params prep);
  List.iter
    (fun lo ->
      let got = Prepared.exec ~params:[ ("lo", Value.int lo) ] prep in
      let ground =
        Calculus.subst_query
          (Calculus.Var_map.singleton "lo" (Value.int lo))
          param_query
      in
      let expected = exec_q db ground in
      Alcotest.(check bool)
        (Printf.sprintf "same answer as fresh run at lo=%d" lo)
        true
        (Relation.equal_set expected got))
    [ 1; 3; 999 ];
  (* One plan served every binding. *)
  Alcotest.(check int) "one cached plan for all bindings" 1
    (Session.cache_length s)

let test_params_errors () =
  let db = mk_db () in
  let s = Session.create db in
  let prep = Session.prepare s param_query in
  Alcotest.check_raises "missing binding" (Prepared.Unbound_parameter "lo")
    (fun () -> ignore (Prepared.exec prep));
  Alcotest.check_raises "extra binding" (Prepared.Unknown_parameter "hi")
    (fun () ->
      ignore
        (Prepared.exec
           ~params:[ ("lo", Value.int 1); ("hi", Value.int 2) ]
           prep))

(* ---------------------------------------------------------------- *)
(* Property: lifting every constant of a random query into a $param
   and executing the prepared form with the original constants as
   bindings gives exactly the fresh phased answer, for every strategy
   preset. *)

let lift_params (q : Calculus.query) =
  let open Calculus in
  let n = ref 0 in
  let binds = ref [] in
  let lift_operand = function
    | O_const v ->
      incr n;
      let name = Printf.sprintf "p%d" !n in
      binds := (name, v) :: !binds;
      O_param name
    | o -> o
  in
  let lift_atom a = { a with lhs = lift_operand a.lhs; rhs = lift_operand a.rhs } in
  let rec lift_formula = function
    | F_true -> F_true
    | F_false -> F_false
    | F_atom a -> F_atom (lift_atom a)
    | F_not f -> F_not (lift_formula f)
    | F_and (a, b) -> F_and (lift_formula a, lift_formula b)
    | F_or (a, b) -> F_or (lift_formula a, lift_formula b)
    | F_some (v, r, f) -> F_some (v, lift_range r, lift_formula f)
    | F_all (v, r, f) -> F_all (v, lift_range r, lift_formula f)
  and lift_range r =
    match r.restriction with
    | None -> r
    | Some (v, f) -> { r with restriction = Some (v, lift_formula f) }
  in
  let free = List.map (fun (v, r) -> (v, lift_range r)) q.free in
  let body = lift_formula q.body in
  ({ q with free; body }, List.rev !binds)

let prepared_equals_fresh_on seed =
  let db = Workload.Random_query.tiny_db (seed * 12721) in
  let q = Workload.Random_query.generate db seed in
  match Wellformed.check_query db q with
  | Error e ->
    QCheck.Test.fail_reportf "generator produced ill-formed query: %s"
      e.Wellformed.message
  | Ok () ->
    let pq, binds = lift_params q in
    let session = Session.create db in
    List.for_all
      (fun (sname, strategy) ->
        let opts = Exec_opts.make ~strategy () in
        let prep = Session.prepare ~opts session pq in
        let got = Prepared.exec ~params:binds prep in
        let expected = exec_q ~opts db q in
        Relation.equal_set expected got
        ||
        QCheck.Test.fail_reportf
          "prepared(%s) differs on seed %d (%d params):@.%a" sname seed
          (List.length binds) Calculus.pp_query q)
      Strategy.all_presets

let test_prepared_equals_fresh =
  QCheck.Test.make ~name:"prepared exec = fresh phased run" ~count:75
    QCheck.(make Gen.(int_range 0 100_000))
    prepared_equals_fresh_on

(* ---------------------------------------------------------------- *)
(* Differential: one prepared plan per strategy preset, run through
   random writes that flip the emptiness of a base range (shipments), a
   restricted range (red parts) and a $param range (shipments of at
   least $q) both ways: committed through Session.write, made inside
   write transactions that execute the plans on their private states
   and then abort, and made directly on the relations of a store
   without a WAL.  After every write each prepared result must equal
   Naive_eval's, and the plan the cache serves must print exactly as a
   fresh Session.plan_only: planning is a pure function of the query,
   the options and the emptiness answers. *)

let flip_query db =
  let open Calculus in
  let red_parts =
    restricted "parts" "p" (eq (attr "p" "pcolor") (const (Workload.Suppliers.red db)))
  in
  let big_shipments =
    restricted "shipments" "k" (mk_atom (attr "k" "hqty") Value.Ge (param "q"))
  in
  {
    free = [ ("s", base "suppliers") ];
    select = [ ("s", "sname") ];
    body =
      f_or
        (f_and
           (eq (attr "s" "scity") (const (Workload.Suppliers.london db)))
           (f_all "j" big_shipments (eq (attr "j" "hsnr") (attr "s" "snr"))))
        (f_and
           (f_some "h" (base "shipments") (eq (attr "h" "hsnr") (attr "s" "snr")))
           (f_all "p" red_parts
              (f_some "k" (base "shipments")
                 (f_and
                    (eq (attr "k" "hsnr") (attr "s" "snr"))
                    (eq (attr "k" "hpnr") (attr "p" "pnr"))))));
  }

type mutator = {
  ins : string -> Tuple.t -> unit;
  del : string -> Value.t list -> unit;
  clr : string -> unit;
}

let direct db =
  let rel = Database.find_relation db in
  {
    ins = (fun n t -> Relation.insert (rel n) t);
    del = (fun n k -> Relation.delete_key (rel n) k);
    clr = (fun n -> Relation.clear (rel n));
  }

let in_txn txn =
  {
    ins = Session.Txn.insert txn;
    del = Session.Txn.delete_key txn;
    clr = Session.Txn.clear txn;
  }

let random_write db rng m =
  let int n = Random.State.int rng n in
  let upsert name key rest =
    m.del name key;
    m.ins name (Tuple.of_list (key @ rest))
  in
  match int 6 with
  | 0 -> m.clr "shipments"
  | 1 -> m.clr "parts"
  | 2 ->
    upsert "shipments"
      [ Value.int (1 + int 4); Value.int (1 + int 3) ]
      [ Value.int (List.nth [ 1; 50; 500 ] (int 3)) ]
  | 3 ->
    let color = Database.find_enum db "colortype" in
    upsert "parts"
      [ Value.int (1 + int 3) ]
      [ Value.str "part"; Value.enum_ordinal color (int 2); Value.int 1 ]
  | 4 -> m.del "parts" [ Value.int (1 + int 3) ]
  | _ -> m.del "shipments" [ Value.int (1 + int 4); Value.int (1 + int 3) ]

let cached_plan_differential seed =
  let db =
    Workload.Suppliers.generate
      {
        Workload.Suppliers.default_params with
        n_suppliers = 4;
        n_parts = 3;
        n_shipments = 5;
        seed;
      }
  in
  let rng = Random.State.make [| seed |] in
  let q = flip_query db in
  let preps =
    List.map
      (fun (name, strategy) ->
        let opts = Exec_opts.make ~strategy () in
        (name, opts, Session.prepare ~opts (Session.create db) q))
      Strategy.all_presets
  in
  let writer = Session.create db in
  let check ?within step =
    let view = Option.value within ~default:db in
    let qty = List.nth [ 1; 50; 501 ] (Random.State.int rng 3) in
    let params = [ ("q", Value.int qty) ] in
    let expected =
      Naive_eval.run view
        (Calculus.subst_query (Calculus.Var_map.singleton "q" (Value.int qty)) q)
    in
    List.iter
      (fun (name, opts, prep) ->
        if not (Relation.equal_set expected (Prepared.exec ?within ~params prep))
        then
          QCheck.Test.fail_reportf "%s: step %d ($q = %d): answer <> naive"
            name step qty;
        let pp = Fmt.str "%a" Plan.pp in
        if
          within = None
          && pp (Prepared.plan prep) <> pp (Session.plan_only ~opts db q)
        then
          QCheck.Test.fail_reportf "%s: step %d: cached plan <> fresh plan"
            name step)
      preps
  in
  for step = 1 to 10 do
    match Random.State.int rng 3 with
    | 0 -> random_write db rng (direct db); check step
    | 1 ->
      Session.write writer (fun txn -> random_write db rng (in_txn txn));
      check step
    | _ ->
      (try
         Session.write writer (fun txn ->
             random_write db rng (in_txn txn);
             check ~within:(Session.Txn.database txn) step;
             raise Exit)
       with Exit -> ());
      check step
  done;
  true

let test_cached_plan_differential =
  QCheck.Test.make ~name:"cached plan = fresh plan across emptiness flips"
    ~count:40
    QCheck.(make Gen.(int_range 0 100_000))
    cached_plan_differential

(* ---------------------------------------------------------------- *)
(* The statement surface: PREPARE ... FOR, EXECUTE with bindings into
   a target relation, and the error paths. *)

let prepare_program =
  {|
TYPE colortype = (red, green, blue);

VAR parts : RELATION <pnr> OF
      RECORD
        pnr : 1..999;
        pname : PACKED ARRAY [1..10] OF char;
        pcolor : colortype
      END;

BEGIN
  parts :+ [<1, 'cam', red>];
  parts :+ [<2, 'bolt', green>];
  parts :+ [<3, 'cog', red>];
  PREPARE bycolor FOR [<p.pnr, p.pname> OF EACH p IN parts : p.pcolor = $c];
  reds := EXECUTE bycolor ($c = red);
  greens := EXECUTE bycolor ($c = green)
END.
|}

let test_lang_prepare_execute () =
  let db = Pascalr_lang.Interp.run_string prepare_program in
  let reds = Database.find_relation db "reds" in
  let greens = Database.find_relation db "greens" in
  Alcotest.(check int) "two red parts" 2 (Relation.cardinality reds);
  Alcotest.(check int) "one green part" 1 (Relation.cardinality greens)

let unbound_program =
  {|
TYPE colortype = (red, green, blue);

VAR parts : RELATION <pnr> OF
      RECORD
        pnr : 1..999;
        pcolor : colortype
      END;

BEGIN
  parts :+ [<1, red>];
  PREPARE bycolor FOR [<p.pnr> OF EACH p IN parts : p.pcolor = $c];
  EXECUTE bycolor
END.
|}

let test_lang_unbound_param () =
  Alcotest.check_raises "unbound parameter surfaces as a runtime error"
    (Pascalr_lang.Interp.Runtime_error
       "EXECUTE bycolor: parameter $c is not bound") (fun () ->
      ignore (Pascalr_lang.Interp.run_string unbound_program))

let test_lang_unknown_prepared () =
  Alcotest.check_raises "executing an unprepared name fails"
    (Pascalr_lang.Interp.Runtime_error "EXECUTE nope: no such prepared query")
    (fun () -> Pascalr_lang.Interp.exec_string (Database.create ()) "EXECUTE nope")

let suite =
  [
    ( "session",
      [
        Alcotest.test_case "repeat execution hits the plan cache" `Quick
          test_repeat_hits;
        Alcotest.test_case "unasked or unflipped write keeps the plan" `Quick
          test_unasked_write_keeps_plan;
        Alcotest.test_case "emptiness flip invalidates and re-plans" `Quick
          test_flip_replans;
        Alcotest.test_case "aborted write's plan is re-checked" `Quick
          test_abort_then_same_version;
        Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction;
        Alcotest.test_case "distinct keys per strategy and join order" `Quick
          test_keys_per_options;
        Alcotest.test_case "alpha-renamed query shares the cached plan" `Quick
          test_alpha_renaming_shares_key;
        Alcotest.test_case "texts of one shape share one plan" `Quick
          test_literals_share_plan;
        Alcotest.test_case "literals beside parameters stay internal" `Quick
          test_literals_beside_params;
        Alcotest.test_case "constant-vs-constant atoms still fold" `Quick
          test_constant_atoms_fold;
        Alcotest.test_case "strategy 3 extends a $param range" `Quick
          test_param_range_extension;
        Alcotest.test_case "parameter grounding matches fresh runs" `Quick
          test_params_ground;
        Alcotest.test_case "parameter binding errors" `Quick test_params_errors;
        QCheck_alcotest.to_alcotest test_prepared_equals_fresh;
        QCheck_alcotest.to_alcotest test_cached_plan_differential;
        Alcotest.test_case "PREPARE/EXECUTE statements" `Quick
          test_lang_prepare_execute;
        Alcotest.test_case "EXECUTE without a required binding" `Quick
          test_lang_unbound_param;
        Alcotest.test_case "EXECUTE of an unknown prepared name" `Quick
          test_lang_unknown_prepared;
      ] );
  ]
