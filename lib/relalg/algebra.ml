(* Relational algebra over keyed relations.

   The combination phase of the paper's evaluator (Section 3.3) is
   expressed in these operators: join and Cartesian product combine the
   reference relations of each conjunction, union evaluates the full
   disjunctive form (one materialization fed by several chains) and
   projection eliminates existential quantifiers (Codd's relational
   completeness repertoire, the paper's reference [5]).  Division, the
   universal counterpart, runs over the same columns in the combination
   phase itself. *)

let positions_of schema names =
  Array.of_list (List.map (Schema.index_of schema) names)

(* Fused streaming operators: the combination phase's join, product and
   projection chains, run as vectorized batch kernels.  A stream is
   rooted at one source, int columns over a {!Batch.pool}.  Running it
   drives [batch_size]-row windows of the source through the chain's
   kernels, so an operator chain builds exactly one output instead of
   one per operator.

   Each operator contributes three closures: [force] builds its hash
   table (before any counter moves), [prime] bumps the per-run tallies,
   and [stage] manufactures a fresh kernel instance — one per run, or
   one per chunk of windows under a parallel fan-out.  Kernels work on
   selection vectors, shared column arrays and integer-keyed hash
   tables. *)
module Stream = struct
  type stage = {
    feed : (Batch.t -> unit) -> Batch.t -> unit;
    flush : unit -> unit;
        (* report this instance's row counters to (this domain's)
           metrics registry — called once, after its windows are fed *)
  }

  type t = {
    schema : Schema.t;
    src : Batch.columns;
    pool : Batch.pool;
    force : unit -> unit;
    prime : unit -> unit;
    stage : unit -> stage;
  }

  let schema s = s.schema
  let fused op = Obs.Metrics.incr ("algebra.fused." ^ op)

  let of_columns pool (c : Batch.columns) =
    {
      schema = c.Batch.c_schema;
      src = c;
      pool;
      force = ignore;
      prime = ignore;
      stage = (fun () -> { feed = (fun k -> k); flush = ignore });
    }

  let of_relation ?(pool = Batch.create_pool ()) rel =
    of_columns pool (Batch.of_relation pool rel)

  (* Append one operator to the chain: its build work, its tallies and
     its kernel, composed after the upstream ones. *)
  let extend s ~schema ?(force = ignore) ~prime stage =
    {
      s with
      schema;
      force =
        (fun () ->
          s.force ();
          force ());
      prime =
        (fun () ->
          s.prime ();
          prime ());
      stage = (fun () -> stage (s.stage ()));
    }

  (* Probe rows in and rows out of one join/product instance, reported
     when the instance flushes.  The build side's cardinality counts
     towards [join_rows_in] once per run, in [prime]. *)
  let counted_stage up feed =
    let n_in = ref 0 and n_out = ref 0 in
    {
      feed = (fun k -> up.feed (feed n_in n_out k));
      flush =
        (fun () ->
          up.flush ();
          Obs.Metrics.incr ~by:!n_in "combination.join_rows_in";
          Obs.Metrics.incr ~by:!n_out "combination.join_rows_out");
    }

  let count_build op (c : Batch.columns) () =
    fused op;
    Obs.Metrics.incr ~by:c.Batch.c_rows "combination.join_rows_in"

  (* Columnar projection shares the retained column arrays — no per-row
     work at all.  Duplicates pass through; the materialization's
     whole-row dedup folds them. *)
  let project s names =
    let positions = positions_of s.schema names in
    extend s
      ~schema:(Schema.project s.schema names)
      ~prime:(fun () -> fused "project")
      (fun up ->
        {
          up with
          feed = (fun k -> up.feed (fun b -> k (Batch.project b positions)));
        })

  (* Each probe row pairs with every inner row, inner rows taken in
     reverse order. *)
  let cross s (c : Batch.columns) =
    extend s
      ~schema:(Schema.concat s.schema c.Batch.c_schema)
      ~prime:(count_build "product" c)
      (fun up ->
        let ni = c.Batch.c_rows in
        counted_stage up (fun n_in n_out k b ->
            let lc = Batch.live_count b in
            n_in := !n_in + lc;
            let m = lc * ni in
            if m > 0 then begin
              n_out := !n_out + m;
              let pidx = Array.make m 0 and iidx = Array.make m 0 in
              let j = ref 0 in
              Batch.live_iter
                (fun i ->
                  for r = ni - 1 downto 0 do
                    pidx.(!j) <- i;
                    iidx.(!j) <- r;
                    incr j
                  done)
                b;
              let cols =
                Array.append
                  (Batch.gather_cols b.Batch.cols pidx)
                  (Batch.gather_cols c.Batch.c_cols iidx)
              in
              k (Batch.of_cols cols m)
            end))

  (* Hash join with the stream as probe side and columns as build side,
     over integer keys.  The build table is filled once per run; its
     buckets cons row indices in order and are walked front-first, so
     per-probe matches surface in reverse order.  When the build side
     contributes no new columns the join degenerates to a semijoin
     filter — one emission per matching probe row — and with no shared
     attribute to a product. *)
  let join s (c : Batch.columns) =
    let sa = s.schema and sb = c.Batch.c_schema in
    let shared = List.filter (fun n -> Schema.mem sa n) (Schema.names sb) in
    match shared with
    | [] -> cross s c
    | _ ->
      let pa = positions_of sa shared and pb = positions_of sb shared in
      (* Integer keys are only comparable when the paired columns encode
         into the same class: a raw int on one side and a pool id on the
         other would collide meaninglessly.  Such a pairing is a type
         error, exactly as comparing the two values would be. *)
      List.iteri
        (fun idx n ->
          let ta = Schema.type_at sa pa.(idx) and tb = Schema.type_at sb pb.(idx) in
          if Batch.cls_of_type ta <> Batch.cls_of_type tb then
            Errors.type_error "natural join on %s: cannot compare %a with %a" n
              Vtype.pp ta Vtype.pp tb)
        shared;
      let keep_b =
        List.filter (fun n -> not (Schema.mem sa n)) (Schema.names sb)
      in
      let keep_src =
        Array.map (fun p -> c.Batch.c_cols.(p)) (positions_of sb keep_b)
      in
      let out_schema =
        if keep_b = [] then sa else Schema.concat sa (Schema.project sb keep_b)
      in
      let table =
        lazy
          (let tbl = Batch.Ikey.create (max 16 c.Batch.c_rows) in
           for r = 0 to c.Batch.c_rows - 1 do
             let key = Batch.key_of_row c.Batch.c_cols pb r in
             match Batch.Ikey.find_opt tbl key with
             | Some rows -> Batch.Ikey.replace tbl key (r :: rows)
             | None -> Batch.Ikey.replace tbl key [ r ]
           done;
           tbl)
      in
      extend s ~schema:out_schema
        ~force:(fun () -> ignore (Lazy.force table : int list Batch.Ikey.t))
        ~prime:(count_build "join" c)
        (fun up ->
          let tbl = Lazy.force table in
          counted_stage up (fun n_in n_out k b ->
              n_in := !n_in + Batch.live_count b;
              if keep_b = [] then begin
                let out =
                  Batch.filter b (fun i ->
                      Batch.Ikey.mem tbl (Batch.key_of_row b.Batch.cols pa i))
                in
                let lc = Batch.live_count out in
                if lc > 0 then begin
                  n_out := !n_out + lc;
                  k out
                end
              end
              else begin
                let pidx = Batch.Ivec.create () and bidx = Batch.Ivec.create () in
                Batch.live_iter
                  (fun i ->
                    match
                      Batch.Ikey.find_opt tbl (Batch.key_of_row b.Batch.cols pa i)
                    with
                    | None -> ()
                    | Some rows ->
                      List.iter
                        (fun r ->
                          Batch.Ivec.push pidx i;
                          Batch.Ivec.push bidx r)
                        rows)
                  b;
                let m = Batch.Ivec.length pidx in
                if m > 0 then begin
                  n_out := !n_out + m;
                  let cols =
                    Array.append
                      (Batch.gather_cols b.Batch.cols (Batch.Ivec.to_array pidx))
                      (Batch.gather_cols keep_src (Batch.Ivec.to_array bidx))
                  in
                  k (Batch.of_cols cols m)
                end
              end))

  let natural_join s rel = join s (Batch.of_relation s.pool rel)
  let product s rel = cross s (Batch.of_relation s.pool rel)

  (* The one output of one or more same-shape chains over one pool (one
     chain: a join/product/project pipeline; several: their union, the
     full disjunctive form), with set semantics like every intermediate
     reference relation: a row is kept on its first emission.

     Chains run in list order into one sink.  Serially, a chain's
     windows run through one kernel instance.  Under [par] the windows
     of a source clearing the threshold are the fan-out unit: each
     domain gets whole windows and a private kernel instance over the
     read-only shared build tables, and its output batches replay here
     in chunk order — the serial emission sequence, for every [jobs]. *)
  let run ?par ?(batch_size = 2048) ?(name = "") chains =
    let first =
      match chains with
      | s :: _ -> s
      | [] -> invalid_arg "Stream.materialize: no chain"
    in
    List.iter
      (fun s ->
        if not (Schema.same_shape first.schema s.schema) then
          Errors.schema_error "union: incompatible schemas %a vs %a" Schema.pp
            first.schema Schema.pp s.schema;
        if s.pool != first.pool then
          invalid_arg "Stream.materialize: chains over different pools")
      chains;
    let batch_size = max 1 batch_size in
    List.iter (fun s -> s.force ()) chains;
    if List.compare_length_with chains 1 > 0 then
      Obs.Metrics.incr "algebra.materialized.union";
    let n_total =
      List.fold_left (fun n s -> n + s.src.Batch.c_rows) 0 chains
    in
    let acc =
      Batch.acc_create ~name (Schema.make (Schema.attrs first.schema) ~key:[])
    in
    let all = Array.init (Schema.arity first.schema) Fun.id in
    let seen = Batch.Ikey.create 64 in
    let rows_out = ref 0 in
    let sink ob =
      Batch.live_iter
        (fun i ->
          incr rows_out;
          let before = Batch.Ikey.length seen in
          Batch.Ikey.replace seen (Batch.key_of_row ob.Batch.cols all i) ();
          if Batch.Ikey.length seen <> before then Batch.acc_push acc ob i)
        ob
    in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun s ->
        Obs.Metrics.incr "algebra.materialized.stream";
        s.prime ();
        let n = s.src.Batch.c_rows in
        let window off =
          Batch.window s.src ~off ~len:(min batch_size (n - off))
        in
        match Domain_pool.active par n with
        | Some p ->
          Obs.Metrics.incr "algebra.par.stream";
          let windows =
            Array.init ((n + batch_size - 1) / batch_size) (fun i ->
                window (i * batch_size))
          in
          Domain_pool.parallel_chunks ~jobs:p.Domain_pool.jobs windows
            (fun _ chunk ->
              let inst = s.stage () in
              let buf = ref [] in
              Array.iter (inst.feed (fun ob -> buf := ob :: !buf)) chunk;
              inst.flush ();
              List.rev !buf)
          |> List.iter (List.iter sink)
        | None ->
          let inst = s.stage () in
          let feed = inst.feed sink in
          let off = ref 0 in
          while !off < n do
            feed (window !off);
            off := !off + batch_size
          done;
          inst.flush ())
      chains;
    let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
    Obs.Metrics.incr ~by:n_total "algebra.batch.rows_in";
    Obs.Metrics.incr ~by:!rows_out "algebra.batch.rows_out";
    Obs.Metrics.incr ~by:ns "algebra.batch.kernel_ns";
    Batch.acc_finish acc

  let materialize ?par ?batch_size ?name chains =
    let out = run ?par ?batch_size ?name chains in
    Batch.to_relation (List.hd chains).pool out
end
