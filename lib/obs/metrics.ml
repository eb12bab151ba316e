type datum =
  | Counter of int
  | Gauge of float
  | Histogram of {
      count : int;
      sum : float;
      min : float;
      max : float;
      buckets : int array;  (* Histogram.n_buckets log-spaced buckets *)
    }

(* A histogram's running float summary: an all-float record is stored
   flat, so updating it boxes nothing. *)
type summary = { mutable sum : float; mutable min : float; mutable max : float }

type instrument =
  | I_counter of { mutable c : int }
  | I_gauge of { mutable g : float }
  | I_histogram of { mutable count : int; s : summary; buckets : int array }

type snapshot = (string * datum) list

(* One registry per domain.  The engine proper runs on the main domain
   (whose registry this module behaves exactly as the old global one);
   Domain_pool workers get a private registry each, so instrumentation
   sites deep in the stack stay lock-free.  Worker activity reaches the
   main registry as a {!snapshot} delta {!merge}d at the pool's join
   point. *)
let registry_key : (string, instrument) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let registry () = Domain.DLS.get registry_key

(* The update paths look their instrument up with [Hashtbl.find], not
   [find_opt]: a hit — every call but the first — must not allocate an
   option, since [relation.inserts] and [relation.probes] are bumped per
   tuple. *)
let incr ?(by = 1) name =
  let registry = registry () in
  match Hashtbl.find registry name with
  | I_counter c -> c.c <- c.c + by
  | I_gauge _ | I_histogram _ ->
    invalid_arg ("Metrics.incr: " ^ name ^ " is not a counter")
  | exception Not_found -> Hashtbl.replace registry name (I_counter { c = by })

let set_gauge name v =
  let registry = registry () in
  match Hashtbl.find registry name with
  | I_gauge g -> g.g <- v
  | I_counter _ | I_histogram _ ->
    invalid_arg ("Metrics.set_gauge: " ^ name ^ " is not a gauge")
  | exception Not_found -> Hashtbl.replace registry name (I_gauge { g = v })

let gauge_max name v =
  let registry = registry () in
  match Hashtbl.find registry name with
  | I_gauge g -> if v > g.g then g.g <- v
  | I_counter _ | I_histogram _ ->
    invalid_arg ("Metrics.gauge_max: " ^ name ^ " is not a gauge")
  | exception Not_found -> Hashtbl.replace registry name (I_gauge { g = v })

let observe name v =
  let registry = registry () in
  match Hashtbl.find registry name with
  | I_histogram h ->
    h.count <- h.count + 1;
    h.s.sum <- h.s.sum +. v;
    if v < h.s.min then h.s.min <- v;
    if v > h.s.max then h.s.max <- v;
    let i = Histogram.bucket_of v in
    h.buckets.(i) <- h.buckets.(i) + 1
  | I_counter _ | I_gauge _ ->
    invalid_arg ("Metrics.observe: " ^ name ^ " is not a histogram")
  | exception Not_found ->
    let buckets = Array.make Histogram.n_buckets 0 in
    buckets.(Histogram.bucket_of v) <- 1;
    Hashtbl.replace registry name
      (I_histogram { count = 1; s = { sum = v; min = v; max = v }; buckets })

let counter_value name =
  match Hashtbl.find_opt (registry ()) name with
  | Some (I_counter c) -> c.c
  | Some (I_gauge _ | I_histogram _) | None -> 0

let freeze = function
  | I_counter c -> Counter c.c
  | I_gauge g -> Gauge g.g
  | I_histogram h ->
    Histogram
      {
        count = h.count;
        sum = h.s.sum;
        min = h.s.min;
        max = h.s.max;
        buckets = Array.copy h.buckets;
      }

let snapshot () =
  Hashtbl.fold (fun name i acc -> (name, freeze i) :: acc) (registry ()) []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Activity in the window between two snapshots.  Counters and histogram
   count/sum subtract; a counter absent from [before] counts from zero.
   Gauges are point-in-time: keep the [after] value, but only when it
   differs from [before] (an untouched gauge is not activity). *)
let diff ~before ~after =
  List.filter_map
    (fun (name, d_after) ->
      match d_after, List.assoc_opt name before with
      | Counter a, Some (Counter b) ->
        if a = b then None else Some (name, Counter (a - b))
      | Counter a, _ -> if a = 0 then None else Some (name, Counter a)
      | Gauge a, Some (Gauge b) -> if a = b then None else Some (name, Gauge a)
      | Gauge a, _ -> Some (name, Gauge a)
      | Histogram h, Some (Histogram b) ->
        if h.count = b.count then None
        else
          Some
            ( name,
              Histogram
                {
                  count = h.count - b.count;
                  sum = h.sum -. b.sum;
                  min = h.min;
                  max = h.max;
                  buckets =
                    Array.init (Array.length h.buckets) (fun i ->
                        h.buckets.(i)
                        - if i < Array.length b.buckets then b.buckets.(i)
                          else 0);
                } )
      | Histogram h, _ -> if h.count = 0 then None else Some (name, Histogram h))
    after

(* Fold a delta (typically a worker-domain {!diff}) into this domain's
   registry.  Every combination rule is commutative and associative —
   counters add, gauges keep the high-water mark, histograms pool their
   summaries — so the merge order of a batch of worker deltas cannot be
   observed, which is what keeps parallel runs' totals deterministic. *)
let merge (delta : snapshot) =
  let registry = registry () in
  List.iter
    (fun (name, d) ->
      match d, Hashtbl.find_opt registry name with
      | Counter by, _ -> incr ~by name
      | Gauge v, _ -> gauge_max name v
      | Histogram h, Some (I_histogram cur) ->
        cur.count <- cur.count + h.count;
        cur.s.sum <- cur.s.sum +. h.sum;
        if h.min < cur.s.min then cur.s.min <- h.min;
        if h.max > cur.s.max then cur.s.max <- h.max;
        Array.iteri
          (fun i c -> if i < Array.length cur.buckets then
              cur.buckets.(i) <- cur.buckets.(i) + c)
          h.buckets
      | Histogram h, _ ->
        Hashtbl.replace registry name
          (I_histogram
             {
               count = h.count;
               s = { sum = h.sum; min = h.min; max = h.max };
               buckets = Array.copy h.buckets;
             }))
    delta

let find snap name = List.assoc_opt name snap

let get_counter snap name =
  match find snap name with
  | Some (Counter c) -> c
  | Some (Gauge _ | Histogram _) | None -> 0

let get_gauge snap name =
  match find snap name with
  | Some (Gauge g) -> Some g
  | Some (Counter _ | Histogram _) | None -> None

let histogram_quantile snap name q =
  match find snap name with
  | Some (Histogram h) when h.count > 0 ->
    Some
      (Histogram.quantile_of ~count:h.count ~min:h.min ~max:h.max
         ~counts:h.buckets q)
  | Some (Histogram _ | Counter _ | Gauge _) | None -> None

let datum_to_json = function
  | Counter c -> Json.Int c
  | Gauge g -> Json.Float g
  | Histogram h ->
    let quantile q =
      if h.count = 0 then 0.0
      else
        Histogram.quantile_of ~count:h.count ~min:h.min ~max:h.max
          ~counts:h.buckets q
    in
    Json.Obj
      [
        ("count", Json.Int h.count);
        ("sum", Json.Float h.sum);
        ("min", Json.Float h.min);
        ("max", Json.Float h.max);
        ("p50", Json.Float (quantile 0.5));
        ("p95", Json.Float (quantile 0.95));
        ("p99", Json.Float (quantile 0.99));
      ]

let to_json snap = Json.Obj (List.map (fun (n, d) -> (n, datum_to_json d)) snap)

let reset () = Hashtbl.reset (registry ())

let pp_datum ppf = function
  | Counter c -> Fmt.int ppf c
  | Gauge g -> Fmt.pf ppf "%g" g
  | Histogram h ->
    let p q =
      if h.count = 0 then 0.0
      else
        Histogram.quantile_of ~count:h.count ~min:h.min ~max:h.max
          ~counts:h.buckets q
    in
    Fmt.pf ppf "count %d, sum %g, min %g, p50 %g, p95 %g, max %g" h.count
      h.sum h.min (p 0.5) (p 0.95) h.max

let pp ppf snap =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf (n, d) -> Fmt.pf ppf "%s: %a" n pp_datum d))
    snap
