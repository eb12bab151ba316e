type span = {
  sp_name : string;
  sp_start_ms : float;  (* absolute wall clock; differences meaningful *)
  sp_elapsed_ms : float;
  sp_attrs : (string * Json.t) list;
  sp_metrics : Metrics.snapshot;
  sp_children : span list;
}

(* An open span under construction; children accumulate in reverse. *)
type open_span = {
  o_name : string;
  o_start : float;
  o_before : Metrics.snapshot;
  mutable o_attrs : (string * Json.t) list;  (* reversed *)
  mutable o_children : span list;  (* reversed *)
}

(* The open spans of this domain, innermost first: tracing is on iff
   the stack is non-empty ([collect] pushes the root and keeps it there
   until it returns).  Domain-local, like the metrics registry, so two
   domains tracing at once each build their own tree. *)
let stack_key : open_span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let enabled () = match !(Domain.DLS.get stack_key) with [] -> false | _ -> true

let now_ms () = Unix.gettimeofday () *. 1000.0

let open_span ?(attrs = []) name =
  {
    o_name = name;
    o_start = now_ms ();
    o_before = Metrics.snapshot ();
    o_attrs = List.rev attrs;
    o_children = [];
  }

let close_span o =
  {
    sp_name = o.o_name;
    sp_start_ms = o.o_start;
    sp_elapsed_ms = now_ms () -. o.o_start;
    sp_attrs = List.rev o.o_attrs;
    sp_metrics = Metrics.diff ~before:o.o_before ~after:(Metrics.snapshot ());
    sp_children = List.rev o.o_children;
  }

let with_span ?attrs name f =
  let stack = Domain.DLS.get stack_key in
  match !stack with
  | [] -> f ()
  | _ ->
    let o = open_span ?attrs name in
    stack := o :: !stack;
    let finish () =
      match !stack with
      | top :: rest when top == o ->
        stack := rest;
        let closed = close_span o in
        (match rest with
        | parent :: _ -> parent.o_children <- closed :: parent.o_children
        | [] -> ())
      | _ ->
        (* A child span leaked past its parent's close: drop silently
           rather than corrupt the tree (can only happen if a callback
           captured and re-entered the tracer across an exception). *)
        ()
    in
    Fun.protect ~finally:finish f

let add_attr key value =
  match !(Domain.DLS.get stack_key) with
  | [] -> ()
  | top :: _ ->
    top.o_attrs <- (key, value) :: List.remove_assoc key top.o_attrs

let collect ?attrs name f =
  if enabled () then invalid_arg "Trace.collect: already collecting";
  let stack = Domain.DLS.get stack_key in
  let root = open_span ?attrs name in
  stack := [ root ];
  let result = Fun.protect ~finally:(fun () -> stack := []) f in
  (result, close_span root)

let rec find span name =
  if String.equal span.sp_name name then Some span
  else
    List.fold_left
      (fun acc child -> match acc with Some _ -> acc | None -> find child name)
      None span.sp_children

let counter span name = Metrics.get_counter span.sp_metrics name

let to_json span =
  let rec go s =
    Json.Obj
      ([ ("name", Json.Str s.sp_name); ("elapsed_ms", Json.Float s.sp_elapsed_ms) ]
      @ (match s.sp_attrs with [] -> [] | attrs -> [ ("attrs", Json.Obj attrs) ])
      @ (match s.sp_metrics with
        | [] -> []
        | m -> [ ("metrics", Metrics.to_json m) ])
      @
      match s.sp_children with
      | [] -> []
      | cs -> [ ("children", Json.List (List.map go cs)) ])
  in
  go span

(* Chrome trace-event JSON: a flat array of complete ("ph": "X") events
   with microsecond timestamps relative to the root span's start, one
   event per span.  The output loads directly in chrome://tracing and
   Perfetto; span attrs and metric deltas travel in "args". *)
let to_chrome span =
  let base = span.sp_start_ms in
  let rec go acc s =
    let args =
      (match s.sp_attrs with [] -> [] | attrs -> [ ("attrs", Json.Obj attrs) ])
      @
      match s.sp_metrics with
      | [] -> []
      | m -> [ ("metrics", Metrics.to_json m) ]
    in
    let event =
      Json.Obj
        ([
           ("name", Json.Str s.sp_name);
           ("cat", Json.Str "pascalr");
           ("ph", Json.Str "X");
           ("ts", Json.Float ((s.sp_start_ms -. base) *. 1000.0));
           ("dur", Json.Float (s.sp_elapsed_ms *. 1000.0));
           ("pid", Json.Int 1);
           ("tid", Json.Int 1);
         ]
        @ match args with [] -> [] | a -> [ ("args", Json.Obj a) ])
    in
    List.fold_left go (event :: acc) s.sp_children
  in
  Json.List (List.rev (go [] span))

let pp ppf span =
  let rec go indent s =
    Fmt.pf ppf "%s%-30s %8.3f ms" indent s.sp_name s.sp_elapsed_ms;
    List.iter
      (fun (k, d) -> Fmt.pf ppf "  %s=%a" k Metrics.pp_datum d)
      s.sp_metrics;
    List.iter (fun (k, v) -> Fmt.pf ppf "  %s=%a" k Json.pp v) s.sp_attrs;
    Fmt.pf ppf "@.";
    List.iter (go (indent ^ "  ")) s.sp_children
  in
  go "" span
