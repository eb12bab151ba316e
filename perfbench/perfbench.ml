(* The repository benchmark: closed-loop clients driving the library's
   public API in one process, with end-to-end and per-layer metrics.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1

   Workloads:
   - uni-adhoc: University.scaled 8; every request is a PASCAL/R
     selection text (parse + elaborate + prepare through the plan cache
     + execute), drawn from several hundred distinct texts of the
     paper's query shapes;
   - supp-division: Suppliers.scaled 2; prepared division queries
     (ships-all-parts, ships-all-red), london-some-red and a $minqty
     semijoin sweep, one client;
   - supp-rw: Suppliers.scaled 64 with a hash index on shipments.hqty,
     made durable with a write-ahead log; two client domains, 30%
     single-row upserts and 70% prepared reads, a checkpoint every 256
     commits inside the loop.

   With --trace 0 the loop is untraced and the run reports end-to-end
   metrics.  With --trace 1 the loop alternates untraced and traced
   blocks (A-B-A-B): a traced read runs the same execution path under a
   phase clock that records each evaluation phase as a span, a traced
   write calls Database.Txn step by step, and the run reports per-layer
   metrics plus the tracing overhead against the untraced blocks.

   Answers are checked after the loop, against Naive_eval once per
   distinct read; supp-rw also reopens the database from disk and
   compares it byte for byte with the in-memory committed state.  The
   last line of output is one JSON object with the keys correct,
   attempted, failed and metrics. *)

open Relalg
open Pascalr
module Elaborate = Pascalr_lang.Elaborate
module Prng = Workload.Prng

let now = Unix.gettimeofday

(* ---- command line -------------------------------------------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let work_dir = ref ".perfbench"
let inject_wrong_answer = ref false
let short = ref false

let spec_args =
  [
    ("--workload", Arg.Set_string workload, "NAME uni-adhoc | supp-division | supp-rw");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_float seconds, "S measured loop duration");
    ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer) run");
    ("--work-dir", Arg.Set_string work_dir, "DIR scratch directory for WAL files and span dumps");
    ("--short", Arg.Set short, " smoke run: no minimum sample counts, at most two set-ups");
    ( "--inject-wrong-answer",
      Arg.Set inject_wrong_answer,
      " check one distinct read against a deliberately wrong expected answer" );
  ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* Runs under a PASCALR_* override would not compare with default runs. *)
let refuse_overrides () =
  List.iter
    (fun v ->
      match Sys.getenv_opt v with
      | Some _ -> fail "%s is set; unset it so runs compare like with like" v
      | None -> ())
    [ "PASCALR_JOBS"; "PASCALR_BATCH_SIZE"; "PASCALR_NO_INDEX" ]

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ---- workloads ----------------------------------------------------- *)

type read = {
  key : int;  (** identity of the distinct read (text and bindings) *)
  text : string option;  (** ad-hoc: the PASCAL/R selection text *)
  prep : int;  (** prepared: index into the client's prepared queries *)
  params : (string * Value.t) list;
}

type op =
  | Read of read
  | Upsert of { cell : int * int; qty : int }
      (** replace shipment (snr, pnr) by one with a new hqty *)

type world = {
  store : Database.t;
  durable : string option;  (** snapshot path of a WAL-attached store *)
  texts : string array;
  queries : Calculus.query array;  (** prepared at set-up, by index *)
  deck : int array;
      (** request classes, each as often as its share of the mix; every
          client deals them in a fresh random order per round, so the
          mix is exact in every run and only the order and the drawn
          constants depend on the seed *)
  draw : int -> int -> Prng.t -> op;  (** client id -> class -> request *)
  final_checks : read list;
      (** reads evaluated once after the loop, outside the timed window *)
}

type spec = {
  name : string;
  clients : int;
  writes : bool;
  warmup : int;  (** rounds of the deck's reads per session at set-up *)
  build : seed:int -> dir:string -> world;
}

let parse_texts db texts = Array.map (Elaborate.query_of_string db) texts

(* The databases are fixed (the generators' default seeds); the workload
   seed drives the request streams. *)

(* uni-adhoc: the paper's query shapes with literal constants drawn from
   their domains.  The running and existential texts nest t before c
   (Example 4.7's order), which keeps the Naive_eval check affordable;
   the engine's standard form makes the two orders equivalent work. *)
let uni_templates =
  let statuses = Workload.University.status_labels
  and levels = Workload.University.level_labels
  and days = Workload.University.day_labels
  and years = Array.init 16 (fun i -> 1970 + i) in
  let per_status f = Array.to_list statuses |> List.concat_map f in
  let per_year f = Array.to_list years |> List.concat_map f in
  let per_level f = Array.to_list levels |> List.map f in
  let per_day f = Array.to_list days |> List.concat_map f in
  let pap quant body s y =
    Printf.sprintf
      "[<e.enr> OF EACH e IN employees: (e.estatus = %s) AND (%s p IN papers %s)]"
      s quant (body y)
  in
  [
    per_status (fun s ->
        per_year (fun y ->
            per_level (fun l ->
                Printf.sprintf
                  "[<e.ename> OF EACH e IN employees: (e.estatus = %s) AND \
                   ((ALL p IN papers ((p.pyear <> %d) OR (e.enr <> p.penr))) OR \
                   (SOME t IN timetable ((e.enr = t.tenr) AND (SOME c IN courses \
                   ((c.cnr = t.tcnr) AND (c.clevel <= %s))))))]"
                  s y l)));
    per_status (fun s ->
        per_day (fun d ->
            per_level (fun l ->
                Printf.sprintf
                  "[<e.ename> OF EACH e IN employees: (e.estatus = %s) AND \
                   (SOME t IN timetable (((e.enr = t.tenr) AND (t.tday = %s)) AND \
                   (SOME c IN courses ((c.cnr = t.tcnr) AND (c.clevel <= %s)))))]"
                  s d l)));
    per_status (fun s ->
        List.map (pap "SOME" (Printf.sprintf "((p.pyear = %d) AND (e.enr <= p.penr))") s)
          (Array.to_list years));
    per_status (fun s ->
        List.map (pap "ALL" (Printf.sprintf "((p.pyear <> %d) OR (e.enr < p.penr))") s)
          (Array.to_list years));
    per_status (fun s ->
        List.map (pap "ALL" (Printf.sprintf "((p.pyear <> %d) OR (e.enr = p.penr))") s)
          (Array.to_list years));
    per_status (fun s ->
        List.map (pap "SOME" (Printf.sprintf "((p.pyear = %d) AND (e.enr <> p.penr))") s)
          (Array.to_list years));
  ]

let uni_adhoc =
  let build ~seed:_ ~dir:_ =
    let store = Workload.University.generate (Workload.University.scaled 8) in
    let groups = List.map Array.of_list uni_templates in
    let texts = Array.concat groups in
    let offsets =
      let off = ref 0 in
      Array.of_list
        (List.map
           (fun g ->
             let o = !off in
             off := o + Array.length g;
             (o, Array.length g))
           groups)
    in
    let draw _client cls rng =
      let o, n = offsets.(cls) in
      let key = o + Prng.int rng n in
      Read { key; text = Some texts.(key); prep = -1; params = [] }
    in
    (* The running query deals twice: seven slots put the median inside
       one class's latency cluster rather than on a boundary between
       two. *)
    let deck = Array.append [| 0 |] (Array.init (Array.length offsets) Fun.id) in
    { store; durable = None; texts; queries = [||]; deck; draw; final_checks = [] }
  in
  { name = "uni-adhoc"; clients = 1; writes = false; warmup = 8; build }

(* supp-division: prepared division and semijoin queries, planned once,
   so the time goes to the combination phase's division and joins.
   Latencies order the classes london-some-red and the sweep (about
   0.1 ms), ships-all-red (1 ms), ships-all-parts (1.6 ms); ships-all-red
   takes the middle four of the eight slots, which puts the read median
   at the centre of its latency cluster.  The $minqty sweep binds a new
   constant per request.  Ships-no-red-part is left out: at this scale
   its antijoin is an order of magnitude slower than the rest and
   memory-bound, so it would set both percentiles on its own. *)
let heavy_shipments =
  "[<s.sname> OF EACH s IN suppliers: SOME h IN shipments ((h.hsnr = s.snr) \
   AND (h.hqty >= $minqty))]"

let supp_division =
  let build ~seed:_ ~dir:_ =
    let store = Workload.Suppliers.generate (Workload.Suppliers.scaled 2) in
    let queries =
      Array.append
        Workload.Suppliers.
          [| ships_all_parts store; ships_all_red_parts store; london_ships_some_red store |]
        (parse_texts store [| heavy_shipments |])
    in
    let draw _client prep rng =
      if prep = 3 then
        let q = Prng.in_range rng 100 900 in
        Read { key = (prep * 100_000) + q; text = None; prep; params = [ ("minqty", Value.int q) ] }
      else Read { key = prep * 100_000; text = None; prep; params = [] }
    in
    let deck = [| 0; 0; 1; 1; 1; 1; 2; 3 |] in
    { store; durable = None; texts = [||]; queries; deck; draw; final_checks = [] }
  in
  { name = "supp-division"; clients = 1; writes = false; warmup = 2; build }

(* supp-rw: upserts only touch shipments whose hqty is above 500 and
   write a new hqty above 500, while the hqty = $q probes ask for q at
   most 500 — so every read has one right answer for the whole run and
   can be checked against Naive_eval afterwards.  The index buckets
   above 500, which the upserts churn, are probed after the loop. *)
let probe_text = "[<h.hsnr, h.hpnr> OF EACH h IN shipments: h.hqty = $q]"

let supp_rw =
  let build ~seed ~dir =
    let store = Workload.Suppliers.generate (Workload.Suppliers.scaled 64) in
    ignore
      (Database.declare_index store "shipments" ~on:[ "hqty" ]
        : Secondary_index.t);
    let owned = Array.make 2 [] in
    let i = ref 0 in
    Relation.iter
      (fun t ->
        match Tuple.to_list t with
        | [ Value.VInt snr; Value.VInt pnr; Value.VInt q ] when q > 500 ->
          owned.(!i land 1) <- (snr, pnr) :: owned.(!i land 1);
          incr i
        | _ -> ())
      (Database.find_relation store "shipments");
    let owned =
      Array.map (fun l -> Array.of_list (List.sort compare l)) owned
    in
    mkdir_p dir;
    let path = Filename.concat dir "db.snap" in
    Database.attach_wal store ~path;
    let queries =
      Array.append
        (parse_texts store [| probe_text |])
        [| Workload.Suppliers.london_ships_some_red store |]
    in
    let probe q =
      { key = q; text = None; prep = 0; params = [ ("q", Value.int q) ] }
    in
    (* class 0: upsert (6 of 20), 1: hqty probe (5), 2: london-some-red
       (9).  London-some-red is most of the reads, so the read median sits
       in its cluster, not between the probes that hit the plan cache
       and those that re-plan after a commit. *)
    let deck = Array.concat [ Array.make 6 0; Array.make 5 1; Array.make 9 2 ] in
    let draw client cls rng =
      match cls with
      | 0 ->
        Upsert
          { cell = Prng.pick_array rng owned.(client); qty = Prng.in_range rng 501 1000 }
      | 1 -> Read (probe (Prng.in_range rng 1 500))
      | _ -> Read { key = 1_000_000; text = None; prep = 1; params = [] }
    in
    let crng = Prng.create (seed + 17) in
    let final_checks = List.init 20 (fun _ -> probe (Prng.in_range crng 501 1000)) in
    { store; durable = Some path; texts = [||]; queries; deck; draw; final_checks }
  in
  { name = "supp-rw"; clients = 2; writes = true; warmup = 2; build }

let specs = [ uni_adhoc; supp_division; supp_rw ]

(* ---- one client ---------------------------------------------------- *)

let opts = Exec_opts.default
let warmup_s = 2.0
let max_retries = 1000
let checkpoint_every = 256
let shipment cell qty =
  let snr, pnr = cell in
  Tuple.of_list [ Value.int snr; Value.int pnr; Value.int qty ]

(* Counters read at block switches: everything an untraced block's
   per-layer figures need, from this domain's own sources (the session's
   cache stats and the domain-local metrics registry).  GC counts are
   process-wide, so only client 0 samples them. *)
type counters = {
  hits : int;
  misses : int;
  invalidations : int;
  wal_bytes : int;
  wal_commits : int;
  wal_fsyncs : int;
  txn_conflicts : int;
  gc_minor : int;
  gc_major : int;
}

let counters session ~gc =
  let c = Session.cache_stats session in
  let g = if gc then Some (Gc.quick_stat ()) else None in
  let m = Obs.Metrics.counter_value in
  {
    hits = c.Plan_cache.hits;
    misses = c.Plan_cache.misses;
    invalidations = c.Plan_cache.invalidations;
    wal_bytes = m "wal.bytes";
    wal_commits = m "wal.commits";
    wal_fsyncs = m "wal.fsyncs";
    txn_conflicts = m "txn.conflicts";
    gc_minor = (match g with Some g -> g.Gc.minor_collections | None -> 0);
    gc_major = (match g with Some g -> g.Gc.major_collections | None -> 0);
  }

let zero_counters =
  {
    hits = 0;
    misses = 0;
    invalidations = 0;
    wal_bytes = 0;
    wal_commits = 0;
    wal_fsyncs = 0;
    txn_conflicts = 0;
    gc_minor = 0;
    gc_major = 0;
  }

let add_delta acc ~before ~after =
  {
    hits = acc.hits + after.hits - before.hits;
    misses = acc.misses + after.misses - before.misses;
    invalidations = acc.invalidations + after.invalidations - before.invalidations;
    wal_bytes = acc.wal_bytes + after.wal_bytes - before.wal_bytes;
    wal_commits = acc.wal_commits + after.wal_commits - before.wal_commits;
    wal_fsyncs = acc.wal_fsyncs + after.wal_fsyncs - before.wal_fsyncs;
    txn_conflicts = acc.txn_conflicts + after.txn_conflicts - before.txn_conflicts;
    gc_minor = acc.gc_minor + after.gc_minor - before.gc_minor;
    gc_major = acc.gc_major + after.gc_major - before.gc_major;
  }

(* Per-block-kind accumulator: index 0 untraced, 1 traced, 2 the
   loop's warm-up. *)
type acc = {
  mutable reads : int;
  mutable writes : int;
  mutable failed : int;
  read_lat : Samples.t;  (** ms, scaled to the reference host *)
  read_raw : Samples.t;  (** ms, as measured on this host *)
  write_lat : Samples.t;  (** ms, begin to commit return, retries included, scaled *)
  mutable wall : float;  (** summed request wall time, s *)
  mutable retries : int;
  mutable ctr : counters;
  mutable ckpt_n : int;
  mutable ckpt_s : float;
  (* traced-only layer counters *)
  mutable coll_scans : int;
  mutable coll_probes : int;
  mutable coll_rows : int;
  mutable coll_structs : int;
  mutable coll_indexed : int;
  mutable max_ntuple : int;
  mutable join_in : int;
  mutable join_out : int;
  mutable joins : int;
  mutable hash_joins : int;
  mutable batch_in : int;
  mutable batch_ns : int;
  mutable cons_rows : int;
}

let new_acc () =
  {
    reads = 0;
    writes = 0;
    failed = 0;
    read_lat = Samples.create ();
    read_raw = Samples.create ();
    write_lat = Samples.create ();
    wall = 0.0;
    retries = 0;
    ctr = zero_counters;
    ckpt_n = 0;
    ckpt_s = 0.0;
    coll_scans = 0;
    coll_probes = 0;
    coll_rows = 0;
    coll_structs = 0;
    coll_indexed = 0;
    max_ntuple = 0;
    join_in = 0;
    join_out = 0;
    joins = 0;
    hash_joins = 0;
    batch_in = 0;
    batch_ns = 0;
    cons_rows = 0;
  }

type answer = {
  read : read;
  first : Relation.t;  (** the first execution's result *)
  mutable execs : int;
  mutable mismatched : int;  (** executions whose cardinality differed *)
}

type client = {
  id : int;
  session : Session.t;
  prepared : Prepared.t array;
  rng : Prng.t;
  deck : int array;  (** this client's copy of the world's deck *)
  mutable dealt : int;  (** classes dealt from the current round *)
  accs : acc array;
  answers : (int, answer) Hashtbl.t;
  spans : Spans.t;
  last : (int * int, int) Hashtbl.t;  (** each upserted cell's last committed hqty *)
  mutable upserted_bytes : int;  (** encoded bytes of the committed upserted tuples *)
}

type shared = {
  w : world;
  commits : int Atomic.t;
  total_reads : int Atomic.t;
  total_writes : int Atomic.t;
  ckpt_bytes : int Atomic.t;
  ship_schema : Schema.t option;  (** shipments, on a workload that writes *)
  heap_mb : Samples.t;  (** major heap size, sampled by client 0 *)
  pace : Pace.t;  (** the host's speed, probed by client 0 *)
  mutable scaled : float;  (** client 0's measured loop time over the speed factor, s *)
  mutable unscaled : float;  (** the same loop time, s *)
}

let note_answer cl acc (r : read) result =
  match Hashtbl.find_opt cl.answers r.key with
  | None ->
    Hashtbl.add cl.answers r.key { read = r; first = result; execs = 1; mismatched = 0 }
  | Some a ->
    a.execs <- a.execs + 1;
    if Relation.cardinality result <> Relation.cardinality a.first then begin
      a.mismatched <- a.mismatched + 1;
      acc.failed <- acc.failed + 1
    end

let read_untraced w cl (r : read) =
  match r.text with
  | Some text ->
    let q = Elaborate.query_of_string w.store text in
    Prepared.exec (Session.prepare ~opts cl.session q)
  | None -> Prepared.exec ~params:r.params cl.prepared.(r.prep)

(* The traced clock: each evaluation phase Observe times is also a span. *)
let spanned sp (clock : Observe.clock) =
  let layer = function
    | Observe.Collection -> Spans.Collection
    | Observe.Combination -> Spans.Combination
    | Observe.Construction -> Spans.Construction
  in
  {
    Observe.time = (fun ph f -> clock.Observe.time ph (fun () -> Spans.span sp (layer ph) f));
    elapsed = clock.Observe.elapsed;
  }

(* A traced read runs the program's own execution path — Observe.run
   around Prepared.exec_report_with, as Prepared.exec_report does — but
   pins the snapshot itself, so the pin and its release are spans of
   their own ("txn.read"), and hands the phases a clock that records
   them.  Scans and probes are read from this domain's metrics: the
   report's per-relation counters are shared with the other client's
   snapshots. *)
let read_traced sh cl acc (r : read) =
  let sp = cl.spans and store = sh.w.store in
  let ctr = Obs.Metrics.counter_value in
  let p =
    match r.text with
    | Some text ->
      let q = Spans.span sp Lang (fun () -> Elaborate.query_of_string store text) in
      Spans.span sp Plan (fun () -> Session.prepare ~opts cl.session q)
    | None ->
      let p = cl.prepared.(r.prep) in
      Spans.span sp Plan (fun () -> ignore (Prepared.plan p : Plan.t));
      p
  in
  let txn = Spans.span sp Snapshot (fun () -> Database.begin_read store) in
  let batch_in0 = ctr "algebra.batch.rows_in" and batch_ns0 = ctr "algebra.batch.kernel_ns" in
  let scans0 = ctr "relation.scans" and probes0 = ctr "relation.probes" + ctr "index.probes" in
  let join_in0 = ctr "combination.join_rows_in" and join_out0 = ctr "combination.join_rows_out" in
  let since = Observe.window () in
  let res =
    match
      Observe.run ~digest:(Prepared.digest p) ~text:(Prepared.text p) ~opts:(Prepared.opts p)
        ~rows_of:(fun (x : Exec_result.t) -> x.rows)
        (fun clock ->
          Prepared.exec_report_with ~params:r.params ~within:(Database.Txn.view txn) ~since
            (spanned sp clock) p)
    with
    | res -> res
    | exception e ->
      Database.Txn.abort txn;
      raise e
  in
  Spans.span sp Snapshot (fun () -> Database.Txn.commit txn);
  acc.coll_scans <- acc.coll_scans + ctr "relation.scans" - scans0;
  acc.coll_probes <- acc.coll_probes + ctr "relation.probes" + ctr "index.probes" - probes0;
  acc.join_in <- acc.join_in + ctr "combination.join_rows_in" - join_in0;
  acc.join_out <- acc.join_out + ctr "combination.join_rows_out" - join_out0;
  acc.batch_in <- acc.batch_in + ctr "algebra.batch.rows_in" - batch_in0;
  acc.batch_ns <- acc.batch_ns + ctr "algebra.batch.kernel_ns" - batch_ns0;
  List.iter
    (fun (_, path) ->
      acc.coll_structs <- acc.coll_structs + 1;
      if path <> "scan" then acc.coll_indexed <- acc.coll_indexed + 1)
    res.Exec_result.access_paths;
  acc.coll_rows <- List.fold_left (fun s (_, n) -> s + n) acc.coll_rows res.Exec_result.intermediates;
  acc.max_ntuple <- acc.max_ntuple + res.Exec_result.max_ntuple;
  List.iter
    (fun (_, algo) ->
      acc.joins <- acc.joins + 1;
      if algo = "hash" then acc.hash_joins <- acc.hash_joins + 1)
    res.Exec_result.join_algos;
  acc.cons_rows <- acc.cons_rows + res.Exec_result.rows;
  res.Exec_result.result

(* One upsert: delete_key then insert of the same key in one write
   transaction, retried on first-committer-wins conflicts.  Returns the
   number of retries. *)
let write_untraced cl (cell, qty) =
  let snr, pnr = cell in
  let key = [ Value.int snr; Value.int pnr ] and tup = shipment cell qty in
  let rec go tries =
    match
      Session.write cl.session (fun txn ->
          Session.Txn.delete_key txn "shipments" key;
          Session.Txn.insert txn "shipments" tup)
    with
    | () -> tries
    | exception Errors.Txn_conflict _ when tries < max_retries -> go (tries + 1)
  in
  go 0

(* A traced upsert calls Database.Txn directly, so the pin, the
   mutators and the commit are separate spans; on an exception it does
   what Session.write does: abort, drop the session's cached plans, and
   re-raise (or retry a conflict). *)
let write_traced sh cl (cell, qty) =
  let sp = cl.spans in
  let snr, pnr = cell in
  let key = [ Value.int snr; Value.int pnr ] and tup = shipment cell qty in
  let rec go tries =
    let txn = Spans.span sp Txn_pin (fun () -> Database.begin_write sh.w.store) in
    match
      Spans.span sp Txn_write (fun () ->
          Database.Txn.delete_key txn "shipments" key;
          Database.Txn.insert txn "shipments" tup);
      Spans.span sp Txn_commit (fun () -> Database.Txn.commit txn)
    with
    | () -> tries
    | exception e -> (
      Database.Txn.abort txn;
      Session.clear_cache cl.session;
      match e with
      | Errors.Txn_conflict _ when tries < max_retries -> go (tries + 1)
      | e -> raise e)
  in
  go 0

let maybe_checkpoint sh cl acc ~traced =
  if Atomic.fetch_and_add sh.commits 1 mod checkpoint_every = checkpoint_every - 1
  then
    match sh.w.durable with
    | None -> ()
    | Some path ->
      let t0 = now () in
      (if traced then Spans.span cl.spans Checkpoint (fun () -> Database.checkpoint sh.w.store)
       else Database.checkpoint sh.w.store);
      acc.ckpt_s <- acc.ckpt_s +. (now () -. t0);
      acc.ckpt_n <- acc.ckpt_n + 1;
      ignore (Atomic.fetch_and_add sh.ckpt_bytes (Unix.stat path).Unix.st_size : int)

(* The major heap in MB.  Every [probe_every] seconds client 0 probes
   the host's speed and, in the measured loop, samples the heap;
   heap_peak_mb is the 90th percentile of those samples, so one GC
   cycle's timing does not set it, and set-up is not in it. *)
let probe_every = 0.25
let heap_mb () = float ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1048576.0

(* The next request class: a Fisher-Yates shuffle of the deck per round. *)
let deal cl =
  let n = Array.length cl.deck in
  if cl.dealt = n then begin
    for i = n - 1 downto 1 do
      let j = Prng.int cl.rng (i + 1) in
      let x = cl.deck.(i) in
      cl.deck.(i) <- cl.deck.(j);
      cl.deck.(j) <- x
    done;
    cl.dealt <- 0
  end;
  cl.dealt <- cl.dealt + 1;
  cl.deck.(cl.dealt - 1)

let report_error =
  let shown = Atomic.make 0 in
  fun what e ->
    if Atomic.fetch_and_add shown 1 < 5 then
      Printf.eprintf "perfbench: %s failed: %s\n%!" what (Printexc.to_string e)

(* The closed loop.  Requests that start before [origin] are the loop's
   warm-up: run and checked, but in no metric.  [block] is the A-B block
   length in seconds (infinite for an untraced run); odd blocks are
   traced.  The loop ends at the deadline once the run holds [min_reads]
   read samples (and [min_writes] write samples), so every reported
   tail percentile has at least ten samples beyond it. *)
let run_client sh cl ~origin ~deadline ~block ~min_reads ~min_writes =
  let block_of t =
    if t < origin then -1
    else if block = infinity then 0
    else int_of_float ((t -. origin) /. block)
  in
  let kind_of b = if b < 0 then 2 else b land 1 in
  let cur = ref (block_of (now ())) in
  let base = ref (counters cl.session ~gc:(cl.id = 0)) in
  let flush kind =
    let c = counters cl.session ~gc:(cl.id = 0) in
    let a = cl.accs.(kind) in
    a.ctr <- add_delta a.ctr ~before:!base ~after:c;
    base := c
  in
  let req_id = ref 0 in
  let next_probe = ref (now ()) in
  let last = ref origin in
  let finished () =
    now () >= deadline
    && Atomic.get sh.total_reads >= min_reads
    && Atomic.get sh.total_writes >= min_writes
  in
  while not (finished ()) do
    let t = now () in
    if cl.id = 0 && t >= !next_probe then begin
      Pace.probe sh.pace;
      if t >= origin then Samples.add sh.heap_mb (heap_mb ());
      next_probe := t +. probe_every
    end;
    let t0 = now () in
    let b = block_of t0 in
    if b <> !cur then begin
      flush (kind_of !cur);
      cur := b
    end;
    let kind = kind_of b in
    let traced = kind = 1 and timed = kind = 0 in
    let acc = cl.accs.(kind) in
    incr req_id;
    let op = sh.w.draw cl.id (deal cl) cl.rng in
    let body () =
      match op with
      | Read r -> (
        match
          if traced then read_traced sh cl acc r else read_untraced sh.w cl r
        with
        | result ->
          let dt = now () -. t0 in
          acc.reads <- acc.reads + 1;
          if timed then begin
            Samples.add acc.read_raw (dt *. 1e3);
            Samples.add acc.read_lat (dt *. 1e3 /. Pace.factor sh.pace);
            Atomic.incr sh.total_reads
          end;
          note_answer cl acc r result
        | exception e ->
          acc.reads <- acc.reads + 1;
          acc.failed <- acc.failed + 1;
          report_error "read" e)
      | Upsert { cell; qty } -> (
        match
          if traced then write_traced sh cl (cell, qty) else write_untraced cl (cell, qty)
        with
        | retries ->
          let dt = now () -. t0 in
          acc.writes <- acc.writes + 1;
          acc.retries <- acc.retries + retries;
          Hashtbl.replace cl.last cell qty;
          Option.iter
            (fun schema ->
              cl.upserted_bytes <-
                cl.upserted_bytes + Bytes.length (Codec.encode_tuple schema (shipment cell qty)))
            sh.ship_schema;
          if timed then begin
            Samples.add acc.write_lat (dt *. 1e3 /. Pace.factor sh.pace);
            Atomic.incr sh.total_writes
          end;
          maybe_checkpoint sh cl acc ~traced
        | exception e ->
          acc.writes <- acc.writes + 1;
          acc.failed <- acc.failed + 1;
          report_error "write" e)
    in
    if traced then Spans.request cl.spans !req_id body else body ();
    let t1 = now () in
    acc.wall <- acc.wall +. (t1 -. t0);
    if cl.id = 0 && t1 > origin then begin
      let dt = t1 -. Float.max !last origin in
      sh.unscaled <- sh.unscaled +. dt;
      sh.scaled <- sh.scaled +. (dt /. Pace.factor sh.pace);
      last := t1
    end
  done;
  flush (kind_of !cur)

(* ---- set-up -------------------------------------------------------- *)

type instance = { world : world; clients : client array; dir : string }

let setup spec ~seed ~dir =
  let w = spec.build ~seed ~dir in
  let clients =
    Array.init spec.clients (fun id ->
        let session = Session.create w.store in
        let prepared = Array.map (Session.prepare ~opts session) w.queries in
        {
          id;
          session;
          prepared;
          rng = Prng.create ((seed * 7919) + (id * 104_729) + 1);
          deck = Array.copy w.deck;
          dealt = Array.length w.deck;
          accs = [| new_acc (); new_acc (); new_acc () |];
          answers = Hashtbl.create 1024;
          spans = Spans.create ();
          last = Hashtbl.create 64;
          upserted_bytes = 0;
        })
  in
  (* Warm-up: the deck's reads in order, a fixed number of rounds from a
     seed-independent stream, so set-up is the same work for every seed
     and neither the measured stream nor the store depends on it. *)
  let wrng = Prng.create 5 in
  Array.iter
    (fun cl ->
      for _ = 1 to spec.warmup do
        Array.iter
          (fun cls ->
            match w.draw cl.id cls wrng with
            | Read r -> ignore (read_untraced w cl r : Relation.t)
            | Upsert _ -> ())
          w.deck
      done)
    clients;
  { world = w; clients; dir }

let teardown inst =
  if Database.wal_attached inst.world.store then Database.close inst.world.store;
  rm_rf inst.dir

(* ---- answer checking ----------------------------------------------- *)

let reference_query w (r : read) =
  match r.text with
  | Some text -> Elaborate.query_of_string w.store text
  | None ->
    let b =
      List.fold_left
        (fun m (k, v) -> Calculus.Var_map.add k v m)
        Calculus.Var_map.empty r.params
    in
    Calculus.subst_query b w.queries.(r.prep)

let drop_first rel =
  let out = Relation.create (Relation.schema rel) in
  let skip = ref true in
  Relation.iter (fun t -> if !skip then skip := false else Relation.insert out t) rel;
  out

(* Every distinct read once against Naive_eval, after the loop and
   outside set-up.  A wrong first answer fails every execution of that
   read that agreed with it; executions whose cardinality disagreed with
   the first were already counted.  With [inject], the expected answer of
   one read is deliberately wrong (one tuple short), which must surface
   as failures. *)
let check_answers inst ~inject =
  let w = inst.world in
  let by_key = Hashtbl.create 1024 in
  Array.iter
    (fun cl ->
      Hashtbl.iter
        (fun key a ->
          let l = Option.value ~default:[] (Hashtbl.find_opt by_key key) in
          Hashtbl.replace by_key key (a :: l))
        cl.answers)
    inst.clients;
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_key []) in
  let victim = ref inject in
  let failed = ref 0 in
  List.iter
    (fun key ->
      let answers = Hashtbl.find by_key key in
      let naive = Naive_eval.run w.store (reference_query w (List.hd answers).read) in
      let expected =
        if !victim && Relation.cardinality naive > 0 then begin
          victim := false;
          drop_first naive
        end
        else naive
      in
      List.iter
        (fun a ->
          if not (Relation.equal_set a.first expected) then
            failed := !failed + a.execs - a.mismatched)
        answers)
    keys;
  (!failed, List.length keys)

(* Reads evaluated once on the final state through a fresh session: the
   supp-rw probes of the hqty buckets the upserts churned. *)
let check_final inst =
  let w = inst.world in
  let s = Session.create w.store in
  List.fold_left
    (fun failed (r : read) ->
      let got =
        try Some (Prepared.exec ~params:r.params (Session.prepare ~opts s w.queries.(r.prep)))
        with e ->
          report_error "final check" e;
          None
      in
      let naive = Naive_eval.run w.store (reference_query w r) in
      match got with
      | Some g when Relation.equal_set g naive -> failed
      | _ -> failed + 1)
    0 w.final_checks

(* supp-rw durability: reopen from the snapshot plus WAL and require the
   same bytes as the in-memory committed state, the shipments
   cardinality unchanged, and every cell holding its last committed
   hqty.  Returns the mismatches found. *)
let check_durable inst ~rows0 =
  match inst.world.durable with
  | None -> []
  | Some path ->
    let store = inst.world.store in
    let rows db = Relation.cardinality (Database.find_relation db "shipments") in
    let mem = Database.snapshot_bytes store in
    let re = Database.open_durable ~path in
    let problems = ref [] in
    let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
    if not (Bytes.equal mem (Database.snapshot_bytes re)) then
      problem "reopened snapshot bytes differ from the committed state";
    if rows store <> rows0 || rows re <> rows0 then
      problem "shipments cardinality %d / %d (reopened), expected %d" (rows store) (rows re)
        rows0;
    let ships = Database.find_relation re "shipments" in
    let stale = ref 0 in
    Array.iter
      (fun cl ->
        Hashtbl.iter
          (fun (snr, pnr) q ->
            match Relation.find_key ships [ Value.int snr; Value.int pnr ] with
            | Some t when Tuple.get t 2 = Value.int q -> ()
            | _ -> incr stale)
          cl.last)
      inst.clients;
    if !stale > 0 then problem "%d cells lost their last committed hqty" !stale;
    Database.close re;
    !problems

(* ---- report -------------------------------------------------------- *)

type metric = {
  m_name : string;
  m_unit : string;
  m_value : float;
  m_samples : float array;  (** sorted *)
  m_tail : int option;  (** per-mille level, for tail percentiles *)
}

let finite x = if Float.is_finite x then x else 0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fratio a b = ratio (float a) (float b)

let scalar ?(samples = [||]) name unit value =
  let s = if samples = [||] then [| value |] else samples in
  let s = Array.copy s in
  Array.sort Float.compare s;
  { m_name = name; m_unit = unit; m_value = finite value; m_samples = s; m_tail = None }

let of_samples name unit pm samples =
  let s = Samples.sorted samples in
  {
    m_name = name;
    m_unit = unit;
    m_value = finite (Samples.quantile s pm);
    m_samples = s;
    m_tail = (if pm > 750 then Some pm else None);
  }

let print_metric m =
  let n = Array.length m.m_samples in
  let q pm = if n = 0 then "-" else Printf.sprintf "%.6g" (Samples.quantile m.m_samples pm) in
  let value =
    match m.m_tail with
    | Some pm when Samples.beyond pm n < 10 ->
      Printf.sprintf "withheld (%d samples beyond p%d, need 10)" (Samples.beyond pm n)
        (pm / 10)
    | _ -> Printf.sprintf "%.6g" m.m_value
  in
  Printf.printf "metric %-36s unit=%-6s n=%-6d q1=%-10s median=%-10s q3=%-10s value=%s\n"
    m.m_name m.m_unit n (q 250) (q 500) (q 750) value

let json_metrics ms =
  String.concat ","
    (List.map
       (fun m -> Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" m.m_name m.m_value m.m_unit)
       ms)

(* The end-to-end metrics every workload reports in its untraced run's
   JSON line; the write-side figures and error_rate exist on supp-rw or
   are zero at HEAD, so they are printed but not part of it. *)
let json_end_to_end = [ "throughput_rps"; "read_p50_ms"; "read_p99_ms"; "heap_peak_mb"; "setup_s" ]

let merge_accs clients kind =
  let m = new_acc () in
  Array.iter
    (fun cl ->
      let a = cl.accs.(kind) in
      m.reads <- m.reads + a.reads;
      m.writes <- m.writes + a.writes;
      m.failed <- m.failed + a.failed;
      Samples.append ~into:m.read_lat a.read_lat;
      Samples.append ~into:m.read_raw a.read_raw;
      Samples.append ~into:m.write_lat a.write_lat;
      m.wall <- m.wall +. a.wall;
      m.retries <- m.retries + a.retries;
      m.ctr <- add_delta m.ctr ~before:zero_counters ~after:a.ctr;
      m.ckpt_n <- m.ckpt_n + a.ckpt_n;
      m.ckpt_s <- m.ckpt_s +. a.ckpt_s;
      m.coll_scans <- m.coll_scans + a.coll_scans;
      m.coll_probes <- m.coll_probes + a.coll_probes;
      m.coll_rows <- m.coll_rows + a.coll_rows;
      m.coll_structs <- m.coll_structs + a.coll_structs;
      m.coll_indexed <- m.coll_indexed + a.coll_indexed;
      m.max_ntuple <- m.max_ntuple + a.max_ntuple;
      m.join_in <- m.join_in + a.join_in;
      m.join_out <- m.join_out + a.join_out;
      m.joins <- m.joins + a.joins;
      m.hash_joins <- m.hash_joins + a.hash_joins;
      m.batch_in <- m.batch_in + a.batch_in;
      m.batch_ns <- m.batch_ns + a.batch_ns;
      m.cons_rows <- m.cons_rows + a.cons_rows)
    clients;
  m

(* Layer times are scaled to the reference host, as the end-to-end
   timings are; counts and shares are as measured. *)
let per_layer inst ~u ~t ~slowdown =
  let self, calls, wall = Spans.self_times (Array.to_list (Array.map (fun cl -> cl.spans) inst.clients)) in
  let unattributed = self.(Spans.index Request) in
  Printf.printf
    "coverage: layer self times %.6f s + unattributed %.6f s = %.6f s; traced wall %.6f s\n"
    (Array.fold_left ( +. ) 0.0 self -. unattributed)
    unattributed (Array.fold_left ( +. ) 0.0 self) wall;
  let treq = t.reads + t.writes and ureq = u.reads + u.writes in
  (* read layers per traced read, transaction layers per traced write *)
  let ms_per n l = 1e3 *. ratio self.(Spans.index l) (float n) /. slowdown in
  let read_ms = ms_per t.reads and write_ms = ms_per t.writes in
  let per_read x = fratio x t.reads in
  Printf.printf "layers (traced blocks: %d requests, %.3f s wall):\n" treq wall;
  Array.iteri
    (fun i l ->
      Printf.printf "  %-16s calls=%-8d self_ms=%-12.3f share=%.4f\n" (Spans.name l) calls.(i)
        (1e3 *. self.(i))
        (ratio self.(i) wall))
    Spans.layers;
  let c = u.ctr in
  let lookups = c.hits + c.misses + c.invalidations in
  [
    scalar "lang.ms" "ms" (read_ms Lang);
    scalar "plan.ms" "ms" (read_ms Plan);
    scalar "plan_cache.hit_rate" "ratio" (fratio c.hits lookups);
    scalar "plan_cache.invalidations_per_kreq" "1/kreq" (1e3 *. fratio c.invalidations ureq);
    scalar "collection.ms" "ms" (read_ms Collection);
    scalar "collection.scans" "count" (per_read t.coll_scans);
    scalar "collection.probes" "count" (per_read t.coll_probes);
    scalar "collection.rows" "count" (per_read t.coll_rows);
    scalar "collection.probe_share" "ratio" (fratio t.coll_indexed t.coll_structs);
    scalar "combination.ms" "ms" (read_ms Combination);
    scalar "combination.max_ntuple" "count" (per_read t.max_ntuple);
    scalar "combination.join_rows_in" "count" (per_read t.join_in);
    scalar "combination.join_yield" "ratio" (fratio t.join_out t.join_in);
    scalar "combination.hash_share" "ratio" (fratio t.hash_joins t.joins);
    scalar "batch.rows_in" "count" (per_read t.batch_in);
    scalar "batch.kernel_ms" "ms" (1e-6 *. per_read t.batch_ns /. slowdown);
    scalar "construction.ms" "ms" (read_ms Construction);
    scalar "construction.rows" "count" (per_read t.cons_rows);
    scalar "txn.read_ms" "ms" (read_ms Snapshot);
    scalar "txn.pin_ms" "ms" (write_ms Txn_pin);
    scalar "txn.write_ms" "ms" (write_ms Txn_write);
    scalar "txn.commit_ms" "ms" (write_ms Txn_commit);
    scalar "txn.conflicts_per_kwrite" "1/kwrite" (1e3 *. fratio c.txn_conflicts u.writes);
    scalar "txn.retries_per_write" "ratio" (fratio u.retries u.writes);
    scalar "wal.bytes_per_commit" "bytes" (fratio c.wal_bytes c.wal_commits);
    scalar "wal.fsyncs_per_commit" "ratio" (fratio c.wal_fsyncs c.wal_commits);
    scalar "wal.checkpoint_ms" "ms"
      (1e3 *. ratio (u.ckpt_s +. t.ckpt_s) (float (u.ckpt_n + t.ckpt_n)) /. slowdown);
    scalar "gc.minor_per_req" "ratio" (fratio c.gc_minor ureq);
    scalar "gc.major_per_kreq" "1/kreq" (1e3 *. fratio c.gc_major ureq);
    scalar "trace.unattributed_share" "ratio" (ratio unattributed wall);
    scalar "trace.overhead_share" "ratio"
      (ratio (ratio t.wall (float treq)) (ratio u.wall (float ureq)) -. 1.0);
  ]

let dump_spans inst ~origin path =
  let oc = open_out path in
  Array.iter (fun cl -> Spans.write_jsonl oc ~origin ~client:cl.id cl.spans) inst.clients;
  close_out oc

(* ---- main ---------------------------------------------------------- *)

let () =
  let usage = "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec_args (fun a -> fail "unexpected argument %s" a) usage;
  refuse_overrides ();
  let spec =
    match List.find_opt (fun s -> s.name = !workload) specs with
    | Some s -> s
    | None -> fail "unknown workload %S; one of: %s" !workload (String.concat ", " (List.map (fun s -> s.name) specs))
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if not (!seconds > 0.0) then fail "--seconds must be positive";
  let seed = !seed and traced = !trace = 1 in
  mkdir_p !work_dir;
  Printf.printf
    "# perfbench workload=%s seed=%d seconds=%g trace=%d clients=%d nproc=%d ocaml=%s jobs=%d \
     batch_size=%d use_index=%b opts=%s\n%!"
    spec.name seed !seconds !trace spec.clients
    (Domain.recommended_domain_count ())
    Sys.ocaml_version opts.Exec_opts.jobs opts.Exec_opts.batch_size opts.Exec_opts.use_index
    (Fmt.str "%a" Exec_opts.pp opts);
  let dir k =
    Filename.concat !work_dir (Printf.sprintf "%s-%d-%d" spec.name (Unix.getpid ()) k)
  in
  (* Every set-up starts from a collected heap, so the garbage of the
     loop or of the previous set-up is not swept on its clock. *)
  let pace = Pace.create () in
  let raw_setups = ref [] in
  let timed_setup k =
    Gc.full_major ();
    let before = Pace.measure pace in
    let t0 = now () in
    let inst = setup spec ~seed ~dir:(dir k) in
    let s = now () -. t0 in
    let after = Pace.measure pace in
    raw_setups := s :: !raw_setups;
    (inst, s /. ((before +. after) /. 2.0 /. Pace.reference_ms))
  in
  (* setup_s is the median of the set-up that feeds the loop and of
     [spare] more on each side of it: the host's speed moves in phases of
     some seconds, and set-ups forty seconds apart land in different
     ones. *)
  let spare = if !short then 1 else 6 in
  let spare_setups first =
    List.init spare (fun k ->
        let i, s = timed_setup (first + k) in
        teardown i;
        s)
  in
  let before = spare_setups 1 in
  let inst, s0 = timed_setup 0 in
  let rows0 =
    match inst.world.durable with
    | Some _ -> Relation.cardinality (Database.find_relation inst.world.store "shipments")
    | None -> 0
  in
  let sh =
    {
      w = inst.world;
      commits = Atomic.make 0;
      total_reads = Atomic.make 0;
      total_writes = Atomic.make 0;
      ckpt_bytes = Atomic.make 0;
      ship_schema =
        (if spec.writes then
           Some (Relation.schema (Database.find_relation inst.world.store "shipments"))
         else None);
      heap_mb = Samples.create ();
      pace;
      scaled = 0.0;
      unscaled = 0.0;
    }
  in
  (* The first [warmup_s] seconds of the loop let the heap, the plan
     caches and, on supp-rw, the first copies on write settle. *)
  let origin = now () +. warmup_s in
  let deadline = origin +. !seconds in
  let block = if traced then !seconds /. 8.0 else infinity in
  let min_reads = if traced || !short then 0 else 1000 in
  let min_writes = if traced || !short || not spec.writes then 0 else 1000 in
  (* Client 0 runs on the main domain, the others on domains of their
     own: a single-client workload then runs with one domain, like an
     embedded caller. *)
  let loop cl () =
    run_client sh cl ~origin ~deadline ~block ~min_reads ~min_writes;
    now ()
  in
  let others =
    Array.map (fun cl -> Domain.spawn (loop cl))
      (Array.sub inst.clients 1 (Array.length inst.clients - 1))
  in
  let end0 = loop inst.clients.(0) () in
  let ends = Array.append [| end0 |] (Array.map Domain.join others) in
  let elapsed = Array.fold_left Float.max origin ends -. origin in
  let u = merge_accs inst.clients 0
  and t = merge_accs inst.clients 1
  and wu = merge_accs inst.clients 2 in
  (* checks, outside the timed window and outside set-up *)
  let wrong, distinct = check_answers inst ~inject:!inject_wrong_answer in
  let final_failed = check_final inst in
  let durable_problems = check_durable inst ~rows0 in
  List.iter (fun p -> Printf.printf "durability check failed: %s\n" p) durable_problems;
  let durable_checks = if inst.world.durable = None then 0 else 1 in
  let attempted =
    u.reads + u.writes + t.reads + t.writes + wu.reads + wu.writes
    + List.length inst.world.final_checks + durable_checks
  in
  let failed =
    u.failed + t.failed + wu.failed + wrong + final_failed
    + if durable_problems = [] then 0 else 1
  in
  let user_bytes = Array.fold_left (fun acc cl -> acc + cl.upserted_bytes) 0 inst.clients in
  let wal_bytes = u.ctr.wal_bytes + t.ctr.wal_bytes + wu.ctr.wal_bytes in
  if traced then
    dump_spans inst ~origin (Filename.concat !work_dir (Printf.sprintf "trace-%s.jsonl" spec.name));
  teardown inst;
  let setup_times = before @ (s0 :: spare_setups (spare + 1)) in
  let pool_domains = Domain_pool.spawned_domains () in
  Domain_pool.shutdown ();
  let median a =
    let s = Array.copy a in
    Array.sort Float.compare s;
    Samples.quantile s 500
  in
  let setup_samples = Array.of_list setup_times in
  (* Requests completed over the measured loop's wall time; in a traced
     run, over the untraced blocks' share of it. *)
  let throughput =
    float (u.reads + u.writes) /. if traced then u.wall /. float spec.clients else elapsed
  in
  (* How much slower than the reference host this one ran over the
     measured loop, weighted by time. *)
  let slowdown = if sh.scaled > 0.0 then sh.unscaled /. sh.scaled else Pace.factor sh.pace in
  let raw_setup = Array.of_list !raw_setups in
  let e2e =
    [
      scalar "throughput_rps" "1/s" (throughput *. slowdown);
      of_samples "read_p50_ms" "ms" 500 u.read_lat;
      of_samples "read_p99_ms" "ms" 990 u.read_lat;
      of_samples "heap_peak_mb" "MB" 900 sh.heap_mb;
      scalar ~samples:setup_samples "setup_s" "s" (median setup_samples);
      scalar "error_rate" "ratio" (fratio failed attempted);
      scalar "host.slowdown" "ratio" slowdown;
      of_samples "host.probe_ms" "ms" 500 sh.pace.Pace.all;
      scalar "raw.throughput_rps" "1/s" throughput;
      of_samples "raw.read_p50_ms" "ms" 500 u.read_raw;
      of_samples "raw.read_p99_ms" "ms" 990 u.read_raw;
      scalar ~samples:raw_setup "raw.setup_s" "s" (median raw_setup);
    ]
    @
    if spec.writes then
      [
        of_samples "write_p50_ms" "ms" 500 u.write_lat;
        of_samples "write_p99_ms" "ms" 990 u.write_lat;
        scalar "write_amp" "ratio"
          (fratio (wal_bytes + Atomic.get sh.ckpt_bytes) user_bytes);
      ]
    else []
  in
  Printf.printf
    "loop: %.3f s after %g s of warm-up (%d reads + %d writes), %d reads + %d writes untraced, \
     %d + %d traced; %d distinct reads checked against Naive_eval; attempted=%d failed=%d; pool \
     domains spawned=%d\n"
    elapsed warmup_s wu.reads wu.writes u.reads u.writes t.reads t.writes distinct attempted failed
    pool_domains;
  List.iter print_metric e2e;
  let layer = if traced then per_layer inst ~u ~t ~slowdown else [] in
  List.iter print_metric layer;
  let reported =
    if traced then layer
    else List.filter (fun m -> List.mem m.m_name json_end_to_end) e2e
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (failed = 0) attempted failed (json_metrics reported)
