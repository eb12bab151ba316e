(* Observability layer: metric snapshot/diff arithmetic, span nesting
   and timing, and well-formedness of the emitted JSON. *)

open Obs

(* --------------------------------------------------------------- *)
(* A tiny JSON parser — just enough of RFC 8259 to check that what
   Obs.Json prints is well-formed.  Returns unit or raises Failure. *)

let validate_json (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = failwith (Fmt.str "at %d: %s in %S" !pos msg s) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Fmt.str "expected %c" c)
  in
  let literal word =
    String.iter expect word
  in
  let parse_string () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
          advance ();
          go ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done;
          go ()
        | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "raw control char in string"
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  in
  let parse_number () =
    (match peek () with Some '-' -> advance () | _ -> ());
    let digits () =
      let d = ref 0 in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
          incr d;
          advance ();
          go ()
        | _ -> ()
      in
      go ();
      if !d = 0 then fail "expected digit"
    in
    digits ();
    (match peek () with
    | Some '.' ->
      advance ();
      digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> parse_string ()
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else
        let rec members () =
          skip_ws ();
          parse_string ();
          skip_ws ();
          expect ':';
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        members ()
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else
        let rec elements () =
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        elements ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> parse_number ()
    | _ -> fail "expected value"
  in
  parse_value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

(* --------------------------------------------------------------- *)
(* Metrics *)

let test_counter_arithmetic () =
  Metrics.reset ();
  Metrics.incr "c";
  Metrics.incr ~by:5 "c";
  Alcotest.(check int) "counter accumulates" 6 (Metrics.counter_value "c");
  Alcotest.(check int) "absent counter is 0" 0 (Metrics.counter_value "nope")

let test_snapshot_diff () =
  Metrics.reset ();
  Metrics.incr ~by:10 "scans";
  Metrics.incr ~by:3 "probes";
  Metrics.set_gauge "g.stale" 7.0;
  Metrics.set_gauge "g.live" 1.0;
  Metrics.observe "h" 2.0;
  Metrics.observe "h" 4.0;
  let before = Metrics.snapshot () in
  Metrics.incr ~by:5 "scans";
  Metrics.incr "fresh";
  Metrics.set_gauge "g.live" 9.0;
  Metrics.observe "h" 10.0;
  let after = Metrics.snapshot () in
  let d = Metrics.diff ~before ~after in
  Alcotest.(check int) "counter delta" 5 (Metrics.get_counter d "scans");
  Alcotest.(check int) "new counter full value" 1 (Metrics.get_counter d "fresh");
  Alcotest.(check bool) "untouched counter dropped" true
    (Metrics.find d "probes" = None);
  Alcotest.(check bool) "unchanged gauge dropped" true
    (Metrics.find d "g.stale" = None);
  Alcotest.(check (option (float 1e-9))) "changed gauge keeps after value"
    (Some 9.0)
    (Metrics.get_gauge d "g.live");
  (match Metrics.find d "h" with
  | Some (Metrics.Histogram { count; sum; max; _ }) ->
    Alcotest.(check int) "histogram count delta" 1 count;
    Alcotest.(check (float 1e-9)) "histogram sum delta" 10.0 sum;
    Alcotest.(check (float 1e-9)) "histogram max from after" 10.0 max
  | _ -> Alcotest.fail "histogram missing from diff");
  Alcotest.(check int) "identical snapshots diff to nothing" 0
    (List.length (Metrics.diff ~before:after ~after))

let test_gauge_max () =
  Metrics.reset ();
  Metrics.gauge_max "hw" 3.0;
  Metrics.gauge_max "hw" 10.0;
  Metrics.gauge_max "hw" 5.0;
  Alcotest.(check (option (float 1e-9))) "high-water keeps the max"
    (Some 10.0)
    (Metrics.get_gauge (Metrics.snapshot ()) "hw")

let test_metrics_json () =
  Metrics.reset ();
  Metrics.incr ~by:2 "a.counter";
  Metrics.set_gauge "a.gauge" 1.5;
  Metrics.observe "a.histo" 3.0;
  let j = Metrics.to_json (Metrics.snapshot ()) in
  validate_json (Json.to_string j);
  validate_json (Fmt.str "%a" Json.pp_pretty j)

(* --------------------------------------------------------------- *)
(* Trace *)

let test_span_tree () =
  Metrics.reset ();
  let result, root =
    Trace.collect "root" ~attrs:[ ("k", Json.Str "v") ] (fun () ->
        Trace.with_span "first" (fun () -> Metrics.incr ~by:4 "t.scans");
        Trace.with_span "second" (fun () ->
            Trace.with_span "inner" (fun () -> Metrics.incr "t.probes"));
        42)
  in
  Alcotest.(check int) "callback result returned" 42 result;
  Alcotest.(check string) "root name" "root" root.Trace.sp_name;
  Alcotest.(check (list string)) "children in execution order"
    [ "first"; "second" ]
    (List.map (fun s -> s.Trace.sp_name) root.Trace.sp_children);
  Alcotest.(check int) "counter delta on child" 4
    (match Trace.find root "first" with
    | Some s -> Trace.counter s "t.scans"
    | None -> -1);
  Alcotest.(check int) "delta propagates to ancestors" 1
    (Trace.counter root "t.probes");
  Alcotest.(check bool) "find reaches grandchildren" true
    (Trace.find root "inner" <> None);
  Alcotest.(check bool) "tracing off outside collect" true
    (not (Trace.enabled ()))

let test_span_timing_monotonic () =
  let _, root =
    Trace.collect "root" (fun () ->
        Trace.with_span "child" (fun () ->
            Trace.with_span "grandchild" (fun () -> Unix.sleepf 0.002)))
  in
  let elapsed name =
    match Trace.find root name with
    | Some s -> s.Trace.sp_elapsed_ms
    | None -> Alcotest.fail ("missing span " ^ name)
  in
  Alcotest.(check bool) "grandchild took measurable time" true
    (elapsed "grandchild" > 0.0);
  Alcotest.(check bool) "child >= grandchild" true
    (elapsed "child" >= elapsed "grandchild");
  Alcotest.(check bool) "root >= child" true
    (root.Trace.sp_elapsed_ms >= elapsed "child")

let test_span_exception_safety () =
  let _, root =
    Trace.collect "root" (fun () ->
        (try Trace.with_span "boom" (fun () -> raise Exit)
         with Exit -> ());
        Trace.with_span "after" (fun () -> ()))
  in
  Alcotest.(check (list string)) "raising span still closed"
    [ "boom"; "after" ]
    (List.map (fun s -> s.Trace.sp_name) root.Trace.sp_children)

let test_add_attr_overwrites () =
  let _, root =
    Trace.collect "root" (fun () ->
        Trace.add_attr "n" (Json.Int 1);
        Trace.add_attr "n" (Json.Int 2))
  in
  Alcotest.(check bool) "repeated attr key overwrites" true
    (List.assoc_opt "n" root.Trace.sp_attrs = Some (Json.Int 2))

let test_nested_collect_rejected () =
  Alcotest.check_raises "nested collect"
    (Invalid_argument "Trace.collect: already collecting") (fun () ->
      ignore
        (Trace.collect "outer" (fun () ->
             Trace.collect "inner" (fun () -> ()))))

let test_trace_json () =
  Metrics.reset ();
  let _, root =
    Trace.collect "root"
      ~attrs:
        [
          ("quote", Json.Str "say \"hi\"\\");
          ("control", Json.Str "tab\there\nnl");
          ("nan", Json.Float Float.nan);
        ]
      (fun () ->
        Trace.with_span "child" (fun () -> Metrics.incr "j.count"))
  in
  validate_json (Json.to_string (Trace.to_json root));
  validate_json (Fmt.str "%a" Json.pp_pretty (Trace.to_json root))

let test_json_escaping () =
  let doc =
    Json.Obj
      [
        ("plain", Json.Str "abc");
        ("tricky", Json.Str "\"\\\n\t\x01\x1f");
        ("nums", Json.List [ Json.Int (-3); Json.Float 1.5; Json.Float nan ]);
        ("empty_obj", Json.Obj []);
        ("empty_list", Json.List []);
        ("bool", Json.Bool true);
        ("null", Json.Null);
      ]
  in
  validate_json (Json.to_string doc);
  validate_json (Fmt.str "%a" Json.pp_pretty doc);
  Alcotest.(check bool) "member finds a field" true
    (Json.member "bool" doc = Some (Json.Bool true));
  Alcotest.(check bool) "member on non-object" true
    (Json.member "x" (Json.Int 1) = None)

(* An update of an existing instrument allocates nothing: counters are
   bumped per tuple inserted and per key probed.  The words of the
   measurement itself are taken off by measuring an empty loop. *)
let test_metrics_hits_allocation_free () =
  let words f =
    let w0 = Gc.minor_words () in
    for _ = 1 to 1000 do
      f ()
    done;
    Gc.minor_words () -. w0
  in
  let baseline = words ignore in
  Metrics.incr "test.alloc.counter";
  Metrics.set_gauge "test.alloc.gauge" 1.0;
  Metrics.observe "test.alloc.histogram" 2.0;
  List.iter
    (fun (what, f) ->
      Alcotest.(check (float 0.)) (what ^ ": minor words of 1000 hits") 0.
        (words f -. baseline))
    [
      ("incr", fun () -> Metrics.incr "test.alloc.counter");
      ("set_gauge", fun () -> Metrics.set_gauge "test.alloc.gauge" 1.0);
      ("gauge_max", fun () -> Metrics.gauge_max "test.alloc.gauge" 3.0);
      ("observe", fun () -> Metrics.observe "test.alloc.histogram" 2.0);
    ];
  Alcotest.(check int) "the counter still counts" 1001
    (Metrics.counter_value "test.alloc.counter")

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "counter arithmetic" `Quick test_counter_arithmetic;
        Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
        Alcotest.test_case "gauge high-water" `Quick test_gauge_max;
        Alcotest.test_case "metrics json" `Quick test_metrics_json;
        Alcotest.test_case "span tree" `Quick test_span_tree;
        Alcotest.test_case "span timing monotonic" `Quick
          test_span_timing_monotonic;
        Alcotest.test_case "span exception safety" `Quick
          test_span_exception_safety;
        Alcotest.test_case "add_attr overwrites" `Quick
          test_add_attr_overwrites;
        Alcotest.test_case "nested collect rejected" `Quick
          test_nested_collect_rejected;
        Alcotest.test_case "trace json" `Quick test_trace_json;
        Alcotest.test_case "json escaping" `Quick test_json_escaping;
        Alcotest.test_case "metric hits allocate nothing" `Quick
          test_metrics_hits_allocation_free;
      ] );
  ]
