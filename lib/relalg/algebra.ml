(* Relational algebra over keyed relations.

   The combination phase of the paper's evaluator (Section 3.3) is
   expressed in these operators: join and Cartesian product combine the
   reference relations of each conjunction ({!Stream}), union evaluates
   the full disjunctive form, projection eliminates existential
   quantifiers and division universal ones (Codd's relational
   completeness repertoire, the paper's reference [5]). *)

let fresh_name base = base

(* Per-operator materialization tallies: each classic operator call
   allocates one output relation; the fused {!Stream} pipeline reports
   the operators it avoided materializing under [algebra.fused.*]. *)
let tally op = Obs.Metrics.incr ("algebra.materialized." ^ op)

let select ?(name = fresh_name "select") pred rel =
  tally "select";
  let out = Relation.create ~name (Relation.schema rel) in
  Relation.scan (fun t -> if pred t then Relation.insert out t) rel;
  out

let positions_of schema names =
  Array.of_list (List.map (Schema.index_of schema) names)

let project ?(name = fresh_name "project") rel names =
  tally "project";
  let schema = Relation.schema rel in
  let positions = positions_of schema names in
  let out = Relation.create ~name (Schema.project schema names) in
  Relation.scan (fun t -> Relation.insert out (Tuple.project positions t)) rel;
  out

(* Join keys are value arrays (the projected tuple itself), looked up in
   array-keyed {!Value_key} tables — no per-probe list allocation. *)
let join_key positions t = Tuple.project positions t

let require_same_shape op a b =
  if not (Schema.same_shape (Relation.schema a) (Relation.schema b)) then
    Errors.schema_error "%s: incompatible schemas %a vs %a" op Schema.pp
      (Relation.schema a) Schema.pp (Relation.schema b)

let union_all ?(name = fresh_name "union") schema rels =
  tally "union";
  let out = Relation.create ~name schema in
  List.iter
    (fun r ->
      require_same_shape "union" out r;
      Relation.scan (Relation.insert out) r)
    rels;
  out

(* Semijoin a ⋉ b on equated attributes: elements of a that join with at
   least one element of b (Bernstein/Chiu, the paper's reference [2]). *)
let semijoin ?(name = fresh_name "semijoin") ~on a b =
  let pa = positions_of (Relation.schema a) (List.map fst on) in
  let pb = positions_of (Relation.schema b) (List.map snd on) in
  let table = Value_key.acreate (max 16 (Relation.cardinality b)) in
  Relation.scan (fun tb -> Value_key.Atable.replace table (join_key pb tb) ()) b;
  select ~name (fun ta -> Value_key.Atable.mem table (join_key pa ta)) a

(* Antijoin a ▷ b: elements of a that join with no element of b — the
   universal-quantifier counterpart of the semijoin (Section 5's
   "extended to the case of universal quantifiers"). *)
let antijoin ?(name = fresh_name "antijoin") ~on a b =
  let pa = positions_of (Relation.schema a) (List.map fst on) in
  let pb = positions_of (Relation.schema b) (List.map snd on) in
  let table = Value_key.acreate (max 16 (Relation.cardinality b)) in
  Relation.scan (fun tb -> Value_key.Atable.replace table (join_key pb tb) ()) b;
  select ~name (fun ta -> not (Value_key.Atable.mem table (join_key pa ta))) a

(* Division r ÷ s on pairs (r attribute, s attribute): quotient tuples q
   over the remaining attributes of r such that for EVERY element of s
   the combination (q, s-values) appears in r — the relational-algebra
   rendering of universal quantification (paper Section 3.3, refs [5,11]).
   Division by an empty divisor yields all quotient projections of r
   (ALL over the empty relation holds vacuously); callers that need the
   stricter adaptation of Lemma 1 handle emptiness beforehand. *)
let divide ?(name = fresh_name "divide") ~on r s =
  tally "divide";
  let sr = Relation.schema r and ss = Relation.schema s in
  let pr_on = positions_of sr (List.map fst on) in
  let ps_on = positions_of ss (List.map snd on) in
  let quotient_names =
    List.filter
      (fun n -> not (List.mem_assoc n on))
      (Schema.names sr)
  in
  if quotient_names = [] then
    Errors.schema_error "divide: no quotient attributes remain";
  let pr_quot = positions_of sr quotient_names in
  let out_schema = Schema.project sr quotient_names in
  (* Distinct divisor images, deduplicated through a hash table rather
     than a linear membership test over the accumulator. *)
  let divisor_set = Value_key.acreate (max 16 (Relation.cardinality s)) in
  Relation.scan
    (fun t -> Value_key.Atable.replace divisor_set (join_key ps_on t) ())
    s;
  let divisor =
    Value_key.Atable.fold (fun k () acc -> k :: acc) divisor_set []
  in
  let needed = List.length divisor in
  let out = Relation.create ~name out_schema in
  if needed = 0 then begin
    Relation.scan (fun t -> Relation.insert out (Tuple.project pr_quot t)) r;
    out
  end
  else begin
    (* Group r by quotient values, collecting the set of divisor images. *)
    let groups : unit Value_key.atable Value_key.atable =
      Value_key.acreate 64
    in
    Relation.scan
      (fun t ->
        let q = join_key pr_quot t and d = join_key pr_on t in
        let images =
          match Value_key.Atable.find_opt groups q with
          | Some set -> set
          | None ->
            let set = Value_key.acreate 8 in
            Value_key.Atable.replace groups q set;
            set
        in
        Value_key.Atable.replace images d ())
      r;
    Value_key.Atable.iter
      (fun q images ->
        let covers =
          Value_key.Atable.length images >= needed
          && List.for_all (fun d -> Value_key.Atable.mem images d) divisor
        in
        if covers then Relation.insert out q)
      groups;
    out
  end

(* Fused streaming operators: the combination phase's join, product and
   projection chains, run as vectorized batch kernels.  A stream is
   rooted at one source relation.  Materializing it encodes the source
   into column arrays ({!Batch}) and drives [batch_size]-row windows
   through the chain's kernels, so an operator chain allocates exactly
   one output relation instead of one per operator.

   Each operator contributes three closures: [force] encodes its build
   side (before any counter moves), [prime] bumps the per-run tallies,
   and [stage] manufactures a fresh kernel instance — one per run, or
   one per chunk of windows under a parallel fan-out.  Kernels work on
   selection vectors, shared column arrays and integer-keyed hash
   tables; only the materialization decodes rows back into tuples. *)
module Stream = struct
  type stage = {
    feed : (Batch.t -> unit) -> Batch.t -> unit;
    flush : unit -> unit;
        (* report this instance's row counters to (this domain's)
           metrics registry — called once, after its windows are fed *)
  }

  type t = {
    schema : Schema.t;
    src : Relation.t;
    pool : Batch.pool;
    force : unit -> unit;
    prime : unit -> unit;
    stage : unit -> stage;
  }

  let schema s = s.schema
  let fused op = Obs.Metrics.incr ("algebra.fused." ^ op)

  let of_relation ?pool rel =
    {
      schema = Relation.schema rel;
      src = rel;
      pool = (match pool with Some p -> p | None -> Batch.create_pool ());
      force = ignore;
      prime = ignore;
      stage = (fun () -> { feed = (fun k -> k); flush = ignore });
    }

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

  let count_build op rel () =
    fused op;
    Obs.Metrics.incr ~by:(Relation.cardinality rel) "combination.join_rows_in"

  (* Columnar projection shares the retained column arrays — no per-row
     work at all.  Duplicates pass through; the materialization's
     whole-tuple key folds them. *)
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
     reverse iteration order. *)
  let product s rel =
    let enc = lazy (Batch.encode_relation s.pool rel) in
    extend s
      ~schema:(Schema.concat s.schema (Relation.schema rel))
      ~force:(fun () -> ignore (Lazy.force enc : Batch.encoded))
      ~prime:(count_build "product" rel)
      (fun up ->
        let e = Lazy.force enc in
        let ni = Batch.encoded_rows e in
        let ib = Batch.of_encoded s.pool e ~off:0 ~len:ni in
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
                  (Batch.gather_cols ib.Batch.cols iidx)
              in
              k (Batch.of_cols s.pool cols m)
            end))

  (* Hash join with the stream as probe side and a relation as build
     side, both over interned integer keys.  The build table is filled
     once per run; its buckets cons row indices in iteration order and
     are walked front-first, so per-probe matches surface in reverse
     iteration order.  When the build side contributes no new columns
     the join degenerates to a semijoin filter — one emission per
     matching probe row — and with no shared attribute to a product. *)
  let natural_join s rel =
    let sa = s.schema and sb = Relation.schema rel in
    let shared = List.filter (fun n -> Schema.mem sa n) (Schema.names sb) in
    match shared with
    | [] -> product s rel
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
      let keep_positions = positions_of sb keep_b in
      let out_schema =
        if keep_b = [] then sa else Schema.concat sa (Schema.project sb keep_b)
      in
      let built =
        lazy
          (let e = Batch.encode_relation s.pool rel in
           let nb = Batch.encoded_rows e in
           let eb = Batch.of_encoded s.pool e ~off:0 ~len:nb in
           let tbl = Batch.Ikey.create (max 16 nb) in
           for r = 0 to nb - 1 do
             let key = Batch.key_of_row eb.Batch.cols pb r in
             match Batch.Ikey.find_opt tbl key with
             | Some rows -> Batch.Ikey.replace tbl key (r :: rows)
             | None -> Batch.Ikey.replace tbl key [ r ]
           done;
           (Array.map (fun c -> eb.Batch.cols.(c)) keep_positions, tbl))
      in
      extend s ~schema:out_schema
        ~force:(fun () ->
          ignore (Lazy.force built : Batch.col array * int list Batch.Ikey.t))
        ~prime:(count_build "join" rel)
        (fun up ->
          let keep_src, tbl = Lazy.force built in
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
                  k (Batch.of_cols s.pool cols m)
                end
              end))

  (* The chain's one output relation, re-keyed on the whole tuple (set
     semantics, like every intermediate reference relation).  Insertions
     skip the per-value domain check: every emitted tuple is a
     projection/concatenation of tuples from already-checked relations.
     The output key table is preallocated from the source cardinality,
     the output bound of a project/join chain over it.

     Serially, the source's windows run through one kernel instance.
     Under [par] the windows are the fan-out unit: each domain gets
     whole windows and a private kernel instance over the read-only
     shared build tables, and its output batches replay here in chunk
     order — the serial insertion sequence, for every [jobs].  Either
     way the inserted rows' integer cells are registered as the
     output's insertion-order encode, so a later set-semantics pass (the
     columnar divide) reuses these columns instead of re-interning the
     whole intermediate. *)
  let materialize ?par ?(batch_size = 2048) ?name s =
    let batch_size = max 1 batch_size in
    let enc = Batch.encode_relation s.pool s.src in
    s.force ();
    Obs.Metrics.incr "algebra.materialized.stream";
    s.prime ();
    let n = Batch.encoded_rows enc in
    let out =
      Relation.create ?name ~size_hint:n
        (Schema.make (Schema.attrs s.schema) ~key:[])
    in
    let window off =
      Batch.of_encoded s.pool enc ~off ~len:(min batch_size (n - off))
    in
    let rows_out = ref 0 in
    let acc =
      Batch.acc_create
        (Array.init (Schema.arity s.schema) (fun c ->
             Batch.cls_of_type (Schema.type_at s.schema c)))
    in
    let sink ob =
      Batch.live_iter
        (fun i ->
          incr rows_out;
          let before = Relation.cardinality out in
          Relation.insert_unchecked out (Batch.tuple ob i);
          if Relation.cardinality out <> before then Batch.acc_push acc ob i)
        ob
    in
    let t0 = Unix.gettimeofday () in
    (match Domain_pool.active par n with
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
      inst.flush ());
    Batch.register_unordered s.pool out (lazy (Batch.acc_finish acc));
    let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
    Obs.Metrics.incr ~by:n "algebra.batch.rows_in";
    Obs.Metrics.incr ~by:!rows_out "algebra.batch.rows_out";
    Obs.Metrics.incr ~by:ns "algebra.batch.kernel_ns";
    out
end
