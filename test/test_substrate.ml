(* Unit tests for the remaining substrate modules: domains, schemas,
   tuples, indexes and value lists. *)

open Relalg

(* --------------------------------------------------------------- *)
(* Vtype *)

let level =
  Vtype.enum "leveltype" [| "freshman"; "sophomore"; "junior"; "senior" |]

let test_vtype_membership () =
  Alcotest.(check bool) "in subrange" true
    (Vtype.member (Vtype.int_range 1900 1999) (Value.int 1977));
  Alcotest.(check bool) "below subrange" false
    (Vtype.member (Vtype.int_range 1900 1999) (Value.int 1899));
  Alcotest.(check bool) "string within width" true
    (Vtype.member (Vtype.string_width 5) (Value.str "abc"));
  Alcotest.(check bool) "string too wide" false
    (Vtype.member (Vtype.string_width 2) (Value.str "abc"));
  (match level with
  | Vtype.TEnum info ->
    Alcotest.(check bool) "enum member" true
      (Vtype.member level (Value.enum info "junior"));
    Alcotest.(check bool) "foreign enum rejected" false
      (Vtype.member level
         (Value.enum { Value.enum_name = "other"; labels = [| "junior" |] } "junior"))
  | _ -> Alcotest.fail "expected enum");
  Alcotest.(check bool) "reference type" true
    (Vtype.member (Vtype.reference "employees")
       (Value.VRef (Reference.make ~target:"employees" ~key:[ Value.int 1 ])));
  Alcotest.(check bool) "wrong target" false
    (Vtype.member (Vtype.reference "employees")
       (Value.VRef (Reference.make ~target:"papers" ~key:[ Value.int 1 ])))

let test_vtype_comparability () =
  Alcotest.(check bool) "subranges comparable" true
    (Vtype.comparable (Vtype.int_range 1 9) (Vtype.int_range 100 200));
  Alcotest.(check bool) "int vs string not" false
    (Vtype.comparable Vtype.int_full Vtype.string_any);
  Alcotest.(check bool) "same enum" true (Vtype.comparable level level)

let test_vtype_enumerate () =
  (match Vtype.enumerate (Vtype.int_range 3 6) with
  | Some vs -> Alcotest.(check int) "4 values" 4 (List.length vs)
  | None -> Alcotest.fail "expected enumeration");
  (match Vtype.enumerate level with
  | Some vs -> Alcotest.(check int) "4 labels" 4 (List.length vs)
  | None -> Alcotest.fail "expected enumeration");
  Alcotest.(check bool) "strings not enumerable" true
    (Vtype.enumerate Vtype.string_any = None)

(* Domain sizes never overflow: [hi - lo] wraps for the full integer
   domain and for any subrange wider than [max_int]. *)
let test_vtype_size () =
  let wide = Vtype.int_range (-(1 lsl 61)) (1 lsl 61) in
  Alcotest.(check (option int)) "integer" None (Vtype.size Vtype.int_full);
  Alcotest.(check bool) "integer not enumerable" true
    (Vtype.enumerate Vtype.int_full = None);
  Alcotest.(check (option int)) "wider than max_int" None (Vtype.size wide);
  Alcotest.(check bool) "wide subrange not enumerable" true
    (Vtype.enumerate wide = None);
  Alcotest.(check (option int)) "max_int values" (Some max_int)
    (Vtype.size (Vtype.int_range 0 (max_int - 1)));
  Alcotest.(check (option int)) "max_int + 1 values" None
    (Vtype.size (Vtype.int_range (-1) (max_int - 1)));
  Alcotest.(check (option int)) "one value" (Some 1)
    (Vtype.size (Vtype.int_range 5 5));
  Alcotest.(check (list Helpers.value)) "one value enumerated" [ Value.int 5 ]
    (Option.get (Vtype.enumerate (Vtype.int_range 5 5)));
  Alcotest.(check (option int)) "enumeration" (Some 4) (Vtype.size level);
  Alcotest.(check (option int)) "boolean" (Some 2) (Vtype.size Vtype.boolean);
  Alcotest.(check (option int)) "string" None (Vtype.size Vtype.string_any)

let test_vtype_errors () =
  (match Vtype.int_range 5 1 with
  | _ -> Alcotest.fail "expected Schema_error"
  | exception Errors.Schema_error _ -> ());
  match Vtype.enum "empty" [||] with
  | _ -> Alcotest.fail "expected Schema_error"
  | exception Errors.Schema_error _ -> ()

(* --------------------------------------------------------------- *)
(* Schema *)

let abc =
  Schema.make
    [
      Schema.attr "a" Vtype.int_full;
      Schema.attr "b" Vtype.string_any;
      Schema.attr "c" Vtype.boolean;
    ]
    ~key:[ "a" ]

let test_schema_accessors () =
  Alcotest.(check int) "arity" 3 (Schema.arity abc);
  Alcotest.(check int) "index of b" 1 (Schema.index_of abc "b");
  Alcotest.(check (list string)) "key" [ "a" ] (Schema.key_names abc);
  Alcotest.(check bool) "mem" true (Schema.mem abc "c");
  match Schema.index_of abc "z" with
  | _ -> Alcotest.fail "expected Unknown_attribute"
  | exception Errors.Unknown_attribute _ -> ()

let test_schema_project_rename () =
  let p = Schema.project abc [ "c"; "a" ] in
  Alcotest.(check (list string)) "projection order" [ "c"; "a" ] (Schema.names p);
  let r = Schema.rename abc [ ("a", "x") ] in
  Alcotest.(check (list string)) "renamed" [ "x"; "b"; "c" ] (Schema.names r);
  match Schema.rename abc [ ("a", "b") ] with
  | _ -> Alcotest.fail "expected Schema_error on clash"
  | exception Errors.Schema_error _ -> ()

let test_schema_errors () =
  (match
     Schema.make
       [ Schema.attr "a" Vtype.int_full; Schema.attr "a" Vtype.boolean ]
       ~key:[]
   with
  | _ -> Alcotest.fail "duplicate names accepted"
  | exception Errors.Schema_error _ -> ());
  match Schema.make [ Schema.attr "a" Vtype.int_full ] ~key:[ "z" ] with
  | _ -> Alcotest.fail "bad key accepted"
  | exception Errors.Schema_error _ -> ()

(* --------------------------------------------------------------- *)
(* Tuple *)

let test_tuple_operations () =
  let t = Tuple.of_list [ Value.int 1; Value.str "x"; Value.bool true ] in
  Alcotest.check Helpers.value "by name" (Value.str "x")
    (Tuple.get_by_name abc t "b");
  Alcotest.(check bool) "well typed" true (Tuple.well_typed abc t);
  let bad = Tuple.of_list [ Value.str "no"; Value.str "x"; Value.bool true ] in
  Alcotest.(check bool) "ill typed" false (Tuple.well_typed abc bad);
  Alcotest.check Helpers.tuple "project"
    (Tuple.of_list [ Value.bool true; Value.int 1 ])
    (Tuple.project_names abc [ "c"; "a" ] t);
  Alcotest.(check (list Helpers.value))
    "key values" [ Value.int 1 ] (Tuple.key_of abc t);
  (* lexicographic comparison: shorter first, then pointwise *)
  let t2 = Tuple.of_list [ Value.int 1; Value.str "y"; Value.bool true ] in
  Alcotest.(check bool) "t < t2" true (Tuple.compare t t2 < 0);
  Alcotest.(check bool) "shorter first" true
    (Tuple.compare (Tuple.of_list [ Value.int 9 ]) t < 0)

(* --------------------------------------------------------------- *)
(* Index *)

(* The collection phase's way of building an index: create it empty and
   add each element, with its ordinal in an execution's tuple table,
   while a scan passes over the relation. *)
let index_of ?(keep = fun _ -> true) rel ~on =
  let pool = Batch.create_pool () in
  let ord = Batch.ordinals pool rel in
  let idx = Index.create rel ~on in
  Relation.scan (fun t -> if keep t then Index.add idx t (ord t)) rel;
  (idx, pool)

let count_matching idx op v =
  let n = ref 0 in
  Index.iter_matching idx op (Value.int v) (fun _ -> incr n);
  !n

let test_index_build_and_probe () =
  let db = Fixtures.make () in
  let timetable = Database.find_relation db "timetable" in
  let idx, pool = index_of timetable ~on:[ "tcnr" ] in
  Alcotest.(check int) "3 entries" 3 (Index.entry_count idx);
  Alcotest.(check int) "course 10 taught by two" 2
    (count_matching idx Value.Eq 10);
  Alcotest.(check int) "course 99 by none" 0 (count_matching idx Value.Eq 99);
  Alcotest.(check bool) "exists course 10" true
    (Index.exists_matching idx Value.Eq (Value.int 10));
  Alcotest.(check bool) "no course 99" false
    (Index.exists_matching idx Value.Eq (Value.int 99));
  (* General-operator probes: tcnr <= 10, tcnr > 10, tcnr <> 10. *)
  Alcotest.(check int) "tcnr <= 10" 2 (count_matching idx Value.Le 10);
  Alcotest.(check int) "tcnr > 10" 1 (count_matching idx Value.Gt 10);
  Alcotest.(check int) "tcnr <> 10" 1 (count_matching idx Value.Ne 10);
  Alcotest.(check bool) "no tcnr > 99" false
    (Index.exists_matching idx Value.Gt (Value.int 99));
  (* The references are the elements' ordinals: each reads back the
     element it was given for. *)
  let schema = Relation.schema timetable in
  Index.iter_matching idx Value.Eq (Value.int 10) (fun o ->
      Alcotest.(check bool) "ordinal reads back a course-10 element" true
        (Value.equal (Value.int 10)
           (Tuple.get_by_name schema (Batch.tuple_at pool o) "tcnr")))

let test_index_partial () =
  let db = Fixtures.make () in
  let papers = Database.find_relation db "papers" in
  let schema = Relation.schema papers in
  let idx, _ =
    index_of papers ~on:[ "penr" ] ~keep:(fun t ->
        Value.equal (Tuple.get_by_name schema t "pyear") (Value.int 1977))
  in
  Alcotest.(check int) "only 1977 papers" 2 (Index.entry_count idx)

let test_index_to_relation () =
  let db = Fixtures.make () in
  let timetable = Database.find_relation db "timetable" in
  let idx, pool = index_of timetable ~on:[ "tcnr" ] in
  let rel =
    Index.to_relation ~name:"ind_t_cnr" idx pool (Relation.schema timetable)
  in
  (* Figure 2's ind_t_cnr: RELATION <tcnr, tref>. *)
  Alcotest.(check (list string)) "schema" [ "tcnr"; "ref" ]
    (Schema.names (Relation.schema rel));
  Alcotest.(check int) "one row per element" 3 (Relation.cardinality rel)

(* --------------------------------------------------------------- *)
(* Value lists *)

let vl_of ints storage =
  let vl =
    Value_list.create ~storage ~domain:Vtype.int_full ~rows:(List.length ints) ()
  in
  List.iter (fun n -> Value_list.add vl (Value.int n)) ints;
  vl

let test_value_list_full () =
  let vl = vl_of [ 5; 3; 9; 3; 5 ] Value_list.Full in
  Alcotest.(check (option int)) "distinct" (Some 3) (Value_list.distinct_count vl);
  Alcotest.(check int) "stored" 3 (Value_list.stored_size vl);
  Alcotest.(check (option Helpers.value)) "min" (Some (Value.int 3))
    (Value_list.min_value vl);
  Alcotest.(check (option Helpers.value)) "max" (Some (Value.int 9))
    (Value_list.max_value vl);
  Alcotest.(check (list Helpers.value))
    "sorted"
    [ Value.int 3; Value.int 5; Value.int 9 ]
    (Value_list.to_sorted_list vl)

(* quant_holds must agree with the brute-force quantifier on every
   operator for Full storage. *)
let test_value_list_quant_exhaustive () =
  let ints = [ 2; 4; 7 ] in
  let vl = vl_of ints Value_list.Full in
  List.iter
    (fun v ->
      List.iter
        (fun op ->
          let brute_some =
            List.exists (fun w -> Value.apply op (Value.int v) (Value.int w)) ints
          in
          let brute_all =
            List.for_all (fun w -> Value.apply op (Value.int v) (Value.int w)) ints
          in
          Alcotest.(check bool)
            (Printf.sprintf "SOME %d %s" v (Value.comparison_to_string op))
            brute_some
            (Value_list.quant_holds ~quant:Value_list.Q_some op (Value.int v) vl);
          Alcotest.(check bool)
            (Printf.sprintf "ALL %d %s" v (Value.comparison_to_string op))
            brute_all
            (Value_list.quant_holds ~quant:Value_list.Q_all op (Value.int v) vl))
        Value.all_comparisons)
    [ 0; 2; 3; 4; 7; 9 ]

let test_value_list_bounds_storage () =
  let vl = vl_of [ 2; 4; 7; 4 ] Value_list.Bounds in
  Alcotest.(check int) "stores two values" 2 (Value_list.stored_size vl);
  (* Order comparisons still decided exactly. *)
  Alcotest.(check bool) "3 < SOME" true
    (Value_list.quant_holds ~quant:Value_list.Q_some Value.Lt (Value.int 3) vl);
  Alcotest.(check bool) "3 < ALL" false
    (Value_list.quant_holds ~quant:Value_list.Q_all Value.Lt (Value.int 3) vl);
  Alcotest.(check bool) "1 < ALL" true
    (Value_list.quant_holds ~quant:Value_list.Q_all Value.Lt (Value.int 1) vl);
  (* Membership is not available. *)
  match Value_list.mem vl (Value.int 4) with
  | _ -> Alcotest.fail "expected Type_error"
  | exception Errors.Type_error _ -> ()

let test_value_list_at_most_one () =
  let single = vl_of [ 6; 6; 6 ] Value_list.At_most_one in
  Alcotest.(check int) "one stored value" 1 (Value_list.stored_size single);
  Alcotest.(check bool) "6 = ALL" true
    (Value_list.quant_holds ~quant:Value_list.Q_all Value.Eq (Value.int 6) single);
  Alcotest.(check bool) "5 = ALL" false
    (Value_list.quant_holds ~quant:Value_list.Q_all Value.Eq (Value.int 5) single);
  Alcotest.(check bool) "6 <> SOME" false
    (Value_list.quant_holds ~quant:Value_list.Q_some Value.Ne (Value.int 6) single);
  let multi = vl_of [ 6; 8 ] Value_list.At_most_one in
  Alcotest.(check int) "still one stored value" 1 (Value_list.stored_size multi);
  Alcotest.(check bool) "two distinct: ALL-= false" false
    (Value_list.quant_holds ~quant:Value_list.Q_all Value.Eq (Value.int 6) multi);
  Alcotest.(check bool) "two distinct: SOME-<> true" true
    (Value_list.quant_holds ~quant:Value_list.Q_some Value.Ne (Value.int 6) multi)

let test_value_list_empty () =
  let vl = vl_of [] Value_list.Full in
  Alcotest.(check bool) "SOME over empty" false
    (Value_list.quant_holds ~quant:Value_list.Q_some Value.Eq (Value.int 1) vl);
  Alcotest.(check bool) "ALL over empty" true
    (Value_list.quant_holds ~quant:Value_list.Q_all Value.Eq (Value.int 1) vl)

(* A Full list over a declared finite domain (a bitset while it fits
   the build) and one forced onto the hash set (a build that scans no
   rows), fed the same adds, answer every question alike.  Subranges
   take a negative [lo], width 1, the bitset limit [63 * rows] and one
   past it; some int adds fall outside the subrange (an intermediate's
   unchecked insert) and move the bitset to the hash set; probes reach
   below [lo] and above [hi]. *)
let test_value_list_bitset_differential =
  QCheck.Test.make ~name:"value list: bitset = hash set" ~count:300
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let pick n = Random.State.int st n in
      let rows = 1 + pick 4 in
      let domain, values, probes =
        match pick 4 with
        | 0 | 1 ->
          let lo = pick 100 - 60 in
          let width =
            match pick 4 with
            | 0 -> 1
            | 1 -> 63 * rows
            | 2 -> (63 * rows) + 1
            | _ -> 1 + pick 200
          in
          let hi = lo + width - 1 in
          let outside = pick 3 = 0 in
          ( Vtype.int_range lo hi,
            (fun () ->
              if outside && pick 10 = 0 then Value.int (hi + 1 + pick 5)
              else Value.int (lo + pick width)),
            List.init (width + 8) (fun i -> Value.int (lo - 4 + i)) )
        | 2 ->
          let info =
            { Value.enum_name = "e"; labels = Array.init (1 + pick 9) string_of_int }
          in
          let n = Array.length info.labels in
          ( Vtype.TEnum info,
            (fun () -> Value.VEnum (info, pick n)),
            List.init n (fun i -> Value.VEnum (info, i)) )
        | _ ->
          ( Vtype.boolean,
            (fun () -> Value.bool (pick 2 = 0)),
            [ Value.bool false; Value.bool true ] )
      in
      let bits = Value_list.create ~domain ~rows ()
      and hashed = Value_list.create ~domain ~rows:0 () in
      let expect_bits =
        match Vtype.size domain with Some n -> n <= 63 * rows | None -> false
      in
      if Value_list.is_bitset bits <> expect_bits || Value_list.is_bitset hashed
      then QCheck.Test.fail_reportf "wrong representation, seed %d" seed;
      for _ = 1 to pick (4 * rows * 8) do
        let v = values () in
        Value_list.add bits v;
        Value_list.add hashed v
      done;
      let same what eq f =
        eq (f bits) (f hashed)
        || QCheck.Test.fail_reportf "%s differs, seed %d" what seed
      in
      same "distinct_count" ( = ) Value_list.distinct_count
      && same "stored_size" ( = ) Value_list.stored_size
      && same "min_value" (Option.equal Value.equal) Value_list.min_value
      && same "max_value" (Option.equal Value.equal) Value_list.max_value
      && same "to_sorted_list" (List.equal Value.equal) Value_list.to_sorted_list
      && List.for_all
           (fun v ->
             same "mem" Bool.equal (fun vl -> Value_list.mem vl v)
             && List.for_all
                  (fun quant ->
                    List.for_all
                      (fun op ->
                        same
                          (Fmt.str "quant_holds %s %a"
                             (Value.comparison_to_string op) Value.pp v)
                          Bool.equal
                          (Value_list.quant_holds ~quant op v))
                      Value.all_comparisons)
                  [ Value_list.Q_some; Value_list.Q_all ])
           probes)

(* The closures a build fixes once answer what the general functions
   answer, errors included: [tester] against [quant_holds] for every
   storage, quantifier and operator; [adder] against [add], and
   [adder ~if_member] against [mem] then [add], by the lists they fill.
   Domains: int subranges (negative [lo], some too wide for a bitset),
   enumerations, booleans, strings and the unbounded integer.  Lists
   get no adds at times; int adds past a subrange move a bitset to the
   hash set mid-build; enum values carry a copy of the declared info
   at times; probes reach below, inside and above the domain, and one
   is of another kind. *)
let test_value_list_fixed_closures =
  QCheck.Test.make ~name:"value list: fixed closures = quant_holds/add"
    ~count:400
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let pick n = Random.State.int st n in
      (* A domain, the values a build adds, and the probes. *)
      let gen_domain rows =
        match pick 6 with
        | 0 | 1 ->
          let lo = pick 100 - 60 in
          let width =
            match pick 3 with
            | 0 -> 1 + pick 8
            | 1 -> 1 + pick 200
            | _ -> (63 * rows) + 1
          in
          let hi = lo + width - 1 and outside = pick 3 = 0 in
          ( Vtype.int_range lo hi,
            (fun () ->
              if outside && pick 10 = 0 then Value.int (hi + 1 + pick 5)
              else Value.int (lo + pick (min width 300))),
            Value.str "x"
            :: List.init (min width 300 + 8) (fun i -> Value.int (lo - 4 + i)) )
        | 2 ->
          let info =
            { Value.enum_name = "e"; labels = Array.init (1 + pick 9) string_of_int }
          in
          let copy = { info with Value.enum_name = "e" } in
          let n = Array.length info.labels in
          ( Vtype.TEnum info,
            (fun () -> Value.VEnum ((if pick 4 = 0 then copy else info), pick n)),
            Value.int 0
            :: List.concat_map
                 (fun i -> [ Value.VEnum (info, i); Value.VEnum (copy, i) ])
                 (List.init n Fun.id) )
        | 3 ->
          ( Vtype.boolean,
            (fun () -> Value.bool (pick 2 = 0)),
            [ Value.bool false; Value.bool true; Value.int 1 ] )
        | 4 ->
          let words = [| ""; "a"; "ab"; "b"; "ba" |] in
          ( Vtype.string_any,
            (fun () -> Value.str words.(pick 5)),
            Value.int 1 :: Value.str "zz" :: List.map Value.str (Array.to_list words) )
        | _ ->
          ( Vtype.int_full,
            (fun () -> Value.int (pick 40 - 20)),
            Value.str "x" :: List.init 48 (fun i -> Value.int (i - 24)) )
      in
      let outcome f = try Ok (f ()) with Errors.Type_error _ -> Error () in
      let check what ok = ok || QCheck.Test.fail_reportf "%s, seed %d" what seed in
      let rows = pick 5 in
      let domain, values, probes = gen_domain rows in
      let storage =
        [| Value_list.Full; Value_list.Bounds; Value_list.At_most_one |].(pick 3)
      in
      let make () = Value_list.create ~storage ~domain ~rows () in
      (* The member list of [~if_member]: Full, over its own domain. *)
      let key_domain, keys, _ = gen_domain (pick 5) in
      let members = Value_list.create ~domain:key_domain ~rows:(pick 5) () in
      for _ = 1 to pick 12 do
        Value_list.add members (keys ())
      done;
      let by_add = make () and by_adder = make () in
      let member_ref = make () and by_member = make () in
      let adder = Value_list.adder by_adder ~pos:1
      and member_adder =
        Value_list.adder ~if_member:(members, 0) by_member ~pos:1
      in
      for _ = 1 to (if pick 4 = 0 then 0 else 1 + pick 40) do
        let v = values () and k = keys () in
        Value_list.add by_add v;
        adder [| Value.int 0; v |];
        if Value_list.mem members k then Value_list.add member_ref v;
        member_adder [| k; v |]
      done;
      let same_list what a b =
        let same name eq f = check (what ^ ": " ^ name) (eq (f a) (f b)) in
        same "is_bitset" Bool.equal Value_list.is_bitset
        && same "distinct_count" ( = ) Value_list.distinct_count
        && same "stored_size" ( = ) Value_list.stored_size
        && same "is_empty" Bool.equal Value_list.is_empty
        && same "min_value" (Option.equal Value.equal) Value_list.min_value
        && same "max_value" (Option.equal Value.equal) Value_list.max_value
        && same "to_sorted_list"
             (Result.equal ~ok:(List.equal Value.equal) ~error:( = ))
             (fun vl -> outcome (fun () -> Value_list.to_sorted_list vl))
      in
      same_list "adder" by_add by_adder
      && same_list "adder ~if_member" member_ref by_member
      && List.for_all
           (fun quant ->
             List.for_all
               (fun op ->
                 let fixed = Value_list.tester ~quant op by_add ~pos:0 in
                 List.for_all
                   (fun v ->
                     check
                       (Fmt.str "tester %s %a"
                          (Value.comparison_to_string op) Value.pp v)
                       (outcome (fun () -> fixed [| v |])
                       = outcome (fun () ->
                             Value_list.quant_holds ~quant op v by_add)))
                   probes)
               Value.all_comparisons)
           [ Value_list.Q_some; Value_list.Q_all ])

(* A bitset build allocates its bitset and nothing per add: building a
   Full list over 1..1280 from 7680 tuples costs the same words whatever
   the number of tuples added and of distinct values among them. *)
let test_value_list_bitset_allocation () =
  let domain = Vtype.int_range 1 1280 in
  let values = Array.init 1280 (fun i -> Value.int (i + 1)) in
  let build ~adds ~distinct =
    let w0 = Gc.minor_words () in
    let vl = Value_list.create ~domain ~rows:7680 () in
    for i = 0 to adds - 1 do
      Value_list.add vl values.(i mod distinct)
    done;
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check bool) "bitset" true (Value_list.is_bitset vl);
    Alcotest.(check (option int)) "distinct" (Some distinct)
      (Value_list.distinct_count vl);
    words
  in
  let base = build ~adds:7680 ~distinct:1280 in
  List.iter
    (fun (adds, distinct) ->
      Alcotest.(check (float 0.))
        (Fmt.str "%d adds, %d distinct" adds distinct)
        base (build ~adds ~distinct))
    [ (7680, 7); (1280, 1280); (1, 1) ]

(* --------------------------------------------------------------- *)
(* Buffer pool LRU order *)

(* The recency list must evict the least-recently-*accessed* frame, not
   merely some resident frame: a hit moves the frame to the MRU end. *)
let test_pool_lru_eviction_order () =
  let pool = Buffer_pool.create ~capacity:3 in
  let touch page = ignore (Buffer_pool.access pool ~file:1 ~page) in
  touch 0;
  touch 1;
  touch 2;
  Alcotest.(check (list (pair int int)))
    "MRU order after three misses"
    [ (1, 2); (1, 1); (1, 0) ]
    (Buffer_pool.resident_keys_mru pool);
  (* A hit on the oldest page promotes it to MRU... *)
  touch 0;
  Alcotest.(check (list (pair int int)))
    "hit promotes to MRU"
    [ (1, 0); (1, 2); (1, 1) ]
    (Buffer_pool.resident_keys_mru pool);
  (* ...so the next miss evicts page 1, now the true LRU, not page 0. *)
  touch 3;
  Alcotest.(check (list (pair int int)))
    "miss evicts the LRU tail"
    [ (1, 3); (1, 0); (1, 2) ]
    (Buffer_pool.resident_keys_mru pool);
  (* Sequential sweep through a pool-sized window keeps exactly the last
     [capacity] pages, newest first. *)
  for p = 10 to 20 do
    touch p
  done;
  Alcotest.(check (list (pair int int)))
    "sweep leaves the newest window"
    [ (1, 20); (1, 19); (1, 18) ]
    (Buffer_pool.resident_keys_mru pool)

let test_pool_invalidate_unlinks () =
  let pool = Buffer_pool.create ~capacity:4 in
  ignore (Buffer_pool.access pool ~file:1 ~page:0);
  ignore (Buffer_pool.access pool ~file:2 ~page:0);
  ignore (Buffer_pool.access pool ~file:1 ~page:1);
  Buffer_pool.invalidate_file pool ~file:1;
  Alcotest.(check (list (pair int int)))
    "only file 2 remains, list consistent"
    [ (2, 0) ]
    (Buffer_pool.resident_keys_mru pool);
  (* The recency list survived the surgery: more accesses still work. *)
  ignore (Buffer_pool.access pool ~file:3 ~page:0);
  Alcotest.(check int) "resident count" 2 (Buffer_pool.resident_count pool)

let suite =
  [
    ( "substrate",
      [
        Alcotest.test_case "vtype membership" `Quick test_vtype_membership;
        Alcotest.test_case "vtype comparability" `Quick
          test_vtype_comparability;
        Alcotest.test_case "vtype enumerate" `Quick test_vtype_enumerate;
        Alcotest.test_case "vtype size never overflows" `Quick test_vtype_size;
        Alcotest.test_case "vtype errors" `Quick test_vtype_errors;
        Alcotest.test_case "schema accessors" `Quick test_schema_accessors;
        Alcotest.test_case "schema project/rename" `Quick
          test_schema_project_rename;
        Alcotest.test_case "schema errors" `Quick test_schema_errors;
        Alcotest.test_case "tuple operations" `Quick test_tuple_operations;
        Alcotest.test_case "index build/probe" `Quick test_index_build_and_probe;
        Alcotest.test_case "partial index" `Quick test_index_partial;
        Alcotest.test_case "index as Figure-2 relation" `Quick
          test_index_to_relation;
        Alcotest.test_case "value list (full)" `Quick test_value_list_full;
        Alcotest.test_case "value list quantifiers vs brute force" `Quick
          test_value_list_quant_exhaustive;
        Alcotest.test_case "value list bounds storage" `Quick
          test_value_list_bounds_storage;
        Alcotest.test_case "value list at-most-one storage" `Quick
          test_value_list_at_most_one;
        Alcotest.test_case "value list empty" `Quick test_value_list_empty;
        QCheck_alcotest.to_alcotest test_value_list_bitset_differential;
        QCheck_alcotest.to_alcotest test_value_list_fixed_closures;
        Alcotest.test_case "value list bitset allocation" `Quick
          test_value_list_bitset_allocation;
        Alcotest.test_case "buffer pool LRU eviction order" `Quick
          test_pool_lru_eviction_order;
        Alcotest.test_case "buffer pool invalidate keeps list consistent"
          `Quick test_pool_invalidate_unlinks;
      ] );
  ]
