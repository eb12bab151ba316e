(* Cumulative per-query statistics, pg_stat_statements-style.

   One entry per plan-cache digest (the MD5 of the query's shape: its
   variables renamed and its literals lifted), accumulated across every Session / Prepared execution in the
   process: call and cache-hit counts, rows produced, a bucketed wall-ms
   latency histogram (p50/p95/p99 via Histogram), and the
   collection / combination / construction time split.

   The registry is process-global and mutex-protected: executions run
   on the main domain today, but `pascalr stats`-style consumers must
   not observe a torn entry if that ever changes.  The lock is taken
   once per query execution — noise against even the cheapest query. *)

type entry = {
  qs_digest : string;
  mutable qs_query : string;  (* representative text, first seen *)
  mutable qs_opts : string;  (* exec-options fingerprint, last seen *)
  mutable qs_calls : int;
  mutable qs_cache_hits : int;
  mutable qs_replans : int;  (* planning-pipeline runs: misses,
                                invalidations and param regrounds *)
  mutable qs_rows : int;  (* total result tuples over all calls *)
  qs_latency : Histogram.t;  (* wall ms per execution *)
  mutable qs_collection_ms : float;
  mutable qs_combination_ms : float;
  mutable qs_construction_ms : float;
}

let lock = Mutex.create ()
let registry : (string, entry) Hashtbl.t = Hashtbl.create 64

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let record ~digest ~query ~opts ~wall_ms ~collection_ms ~combination_ms
    ~construction_ms ~rows ~cache_hit ~replans =
  locked (fun () ->
      let e =
        match Hashtbl.find_opt registry digest with
        | Some e -> e
        | None ->
          let e =
            {
              qs_digest = digest;
              qs_query = query;
              qs_opts = opts;
              qs_calls = 0;
              qs_cache_hits = 0;
              qs_replans = 0;
              qs_rows = 0;
              qs_latency = Histogram.create ();
              qs_collection_ms = 0.0;
              qs_combination_ms = 0.0;
              qs_construction_ms = 0.0;
            }
          in
          Hashtbl.replace registry digest e;
          e
      in
      e.qs_opts <- opts;
      e.qs_calls <- e.qs_calls + 1;
      if cache_hit then e.qs_cache_hits <- e.qs_cache_hits + 1;
      e.qs_replans <- e.qs_replans + replans;
      e.qs_rows <- e.qs_rows + rows;
      Histogram.observe e.qs_latency wall_ms;
      e.qs_collection_ms <- e.qs_collection_ms +. collection_ms;
      e.qs_combination_ms <- e.qs_combination_ms +. combination_ms;
      e.qs_construction_ms <- e.qs_construction_ms +. construction_ms)

let find digest = locked (fun () -> Hashtbl.find_opt registry digest)

(* Busiest first; digest breaks ties so the order is deterministic. *)
let entries () =
  locked (fun () ->
      Hashtbl.fold (fun _ e acc -> e :: acc) registry []
      |> List.sort (fun a b ->
             match compare b.qs_calls a.qs_calls with
             | 0 -> String.compare a.qs_digest b.qs_digest
             | c -> c))

let reset () = locked (fun () -> Hashtbl.reset registry)

let entry_to_json e =
  Json.Obj
    [
      ("digest", Json.Str e.qs_digest);
      ("query", Json.Str e.qs_query);
      ("opts", Json.Str e.qs_opts);
      ("calls", Json.Int e.qs_calls);
      ("cache_hits", Json.Int e.qs_cache_hits);
      ("replans", Json.Int e.qs_replans);
      ("rows_out", Json.Int e.qs_rows);
      ("latency", Histogram.to_json e.qs_latency);
      ( "phases_ms",
        Json.Obj
          [
            ("collection", Json.Float e.qs_collection_ms);
            ("combination", Json.Float e.qs_combination_ms);
            ("construction", Json.Float e.qs_construction_ms);
          ] );
    ]

let to_json () = Json.List (List.map entry_to_json (entries ()))

let pp_entry ppf e =
  Fmt.pf ppf "%-10s %6d %6d %7d %8d | %a"
    (String.sub e.qs_digest 0 (min 10 (String.length e.qs_digest)))
    e.qs_calls e.qs_cache_hits e.qs_replans e.qs_rows Histogram.pp
    e.qs_latency

let pp ppf () =
  Fmt.pf ppf "@[<v>%-10s %6s %6s %7s %8s | latency (ms)@,%a@]" "digest"
    "calls" "hits" "replans" "rows"
    (Fmt.list ~sep:Fmt.cut pp_entry) (entries ())
