(* Persistent secondary indexes.

   Unlike {!Index} — the paper's throwaway per-query structure, built by
   a counted scan and discarded with the query — a secondary index is a
   catalogued access path: declared once per component list, maintained
   incrementally through every relation mutation (via {!Relation}
   observers), copied on first write by MVCC transactions alongside the
   relation copy, and persisted inside database snapshots as
   checksummed pages.  A single-component one is also the paper's
   permanent index (Section 3.2), standing in for a per-query build.

   Two physical kinds:
   - [Hash]: component values -> tuple buckets; O(1) equality probes.
   - [Sorted]: the same bucket table plus a lazily (re)built sorted key
     array with prefix counts, serving S3-style range restrictions
     (<, <=, >, >=) by binary search and answering "what fraction of
     the relation matches?" exactly in O(log n) — the figure the cost
     model's access-path choice runs on.

   Buckets store whole tuples, not references: a probe hands the
   executor ready tuples with no dereference, and a delete removes by
   tuple equality.  Bucket lists are immutable (mutation replaces the
   bucket), so {!copy}'s shallow table copy gives a write transaction a
   private index in O(distinct keys) while sharing all bucket spines
   with the committed state. *)

type kind = Hash | Sorted

let kind_to_string = function Hash -> "hash" | Sorted -> "sorted"

let kind_of_string = function
  | "hash" -> Hash
  | "sorted" -> Sorted
  | s -> Errors.type_error "unknown index kind %S" s

type t = {
  source : string;
  on : string list;
  kind : kind;
  positions : int array;
  tbl : Tuple.t list Value_key.table;  (* component values -> tuples *)
  mutable entry_count : int;
  mutable sorted : (Value.t list * Tuple.t list) array;
      (* [Sorted] only: entries in ascending key order, rebuilt lazily
         on the first range probe after a mutation *)
  mutable prefix : int array;
      (* prefix.(i) = total tuples in sorted.(0..i-1); length n+1, so
         a key span's exact tuple count is one subtraction *)
  mutable sorted_dirty : bool;
  probes : int Atomic.t;
      (* atomic, not plain mutable: one committed index is probed
         read-only by concurrent snapshot readers — server connections
         and client domains *)
}

let source t = t.source
let on t = t.on
let kind t = t.kind
let entry_count t = t.entry_count
let distinct_keys t = Value_key.Table.length t.tbl
let probe_count t = Atomic.get t.probes
let reset_counters t = Atomic.set t.probes 0

let count_probe t =
  Atomic.incr t.probes;
  Obs.Metrics.incr "index.probes";
  Obs.Metrics.incr "secondary.probes"

let create ~kind rel ~on =
  let schema = Relation.schema rel in
  if on = [] then Errors.schema_error "secondary index needs components";
  let positions = Array.of_list (List.map (Schema.index_of schema) on) in
  {
    source = Relation.name rel;
    on;
    kind;
    positions;
    tbl = Value_key.create 64;
    entry_count = 0;
    sorted = [||];
    prefix = [||];
    sorted_dirty = true;
    probes = Atomic.make 0;
  }

let key_of t tuple = Array.to_list (Tuple.project t.positions tuple)

(* --- Incremental maintenance (fed by Relation observers) ----------- *)

let on_insert t tuple =
  Value_key.add_multi t.tbl (key_of t tuple) tuple;
  t.entry_count <- t.entry_count + 1;
  t.sorted_dirty <- true;
  Obs.Metrics.incr "secondary.maintain_inserts"

let on_delete t tuple =
  let key = key_of t tuple in
  match Value_key.Table.find_opt t.tbl key with
  | None -> ()
  | Some bucket ->
    let bucket' = List.filter (fun u -> not (Tuple.equal u tuple)) bucket in
    let removed = List.length bucket - List.length bucket' in
    if removed > 0 then begin
      (match bucket' with
      | [] -> Value_key.Table.remove t.tbl key
      | _ -> Value_key.Table.replace t.tbl key bucket');
      t.entry_count <- t.entry_count - removed;
      t.sorted_dirty <- true;
      Obs.Metrics.incr "secondary.maintain_deletes"
    end

let on_clear t =
  Value_key.Table.reset t.tbl;
  t.entry_count <- 0;
  t.sorted <- [||];
  t.prefix <- [||];
  t.sorted_dirty <- true

(* Build by one counted scan of the source — same read the paper's
   per-query index build pays, but paid once per declaration. *)
let build ~kind rel ~on =
  Obs.Metrics.incr "secondary.builds";
  let t = create ~kind rel ~on in
  Relation.scan (on_insert t) rel;
  t

(* Rebuild from stored snapshot pages: the tuples were decoded from the
   index's own persisted section, no relation scan involved. *)
let of_tuples ~kind rel ~on tuples =
  let t = create ~kind rel ~on in
  List.iter (on_insert t) tuples;
  t

(* MVCC copy-on-write: shallow-copy the bucket table (buckets are
   immutable lists), reset the lazy sorted view.  Probe counters start
   fresh — the copy is a new measurable object. *)
let copy t =
  {
    t with
    tbl = Value_key.Table.copy t.tbl;
    sorted = [||];
    prefix = [||];
    sorted_dirty = true;
    probes = Atomic.make 0;
  }

(* --- Probing -------------------------------------------------------- *)

let probe t key =
  count_probe t;
  Value_key.find_multi t.tbl key

let probe1 t v = probe t [ v ]

let ensure_sorted t =
  if t.sorted_dirty then begin
    let entries =
      Value_key.Table.fold (fun k b acc -> (k, b) :: acc) t.tbl []
    in
    let arr = Array.of_list entries in
    Array.sort (fun (a, _) (b, _) -> Value.compare_list a b) arr;
    let n = Array.length arr in
    let prefix = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      prefix.(i + 1) <- prefix.(i) + List.length (snd arr.(i))
    done;
    t.sorted <- arr;
    t.prefix <- prefix;
    t.sorted_dirty <- false;
    Obs.Metrics.incr "secondary.sorts"
  end

(* First sorted entry whose key compares >= [v] ([gt] false) or > [v]
   ([gt] true); [n] when none does. *)
let bound t ~gt v =
  let arr = t.sorted in
  let n = Array.length arr in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c =
      match fst arr.(mid) with
      | [ k ] -> Value.compare k v
      | _ ->
        Errors.type_error "range probe on a multi-component index over %s"
          t.source
    in
    if c < 0 || (gt && c = 0) then lo := mid + 1 else hi := mid
  done;
  !lo

(* The half-open sorted-entry span [lo, hi) matching [v' op v]. *)
let span t op v =
  ensure_sorted t;
  let n = Array.length t.sorted in
  match op with
  | Value.Lt -> (0, bound t ~gt:false v)
  | Value.Le -> (0, bound t ~gt:true v)
  | Value.Gt -> (bound t ~gt:true v, n)
  | Value.Ge -> (bound t ~gt:false v, n)
  | Value.Eq | Value.Ne ->
    invalid_arg "Secondary_index.span: not an order comparison"

(* Enumerate tuples matching [indexed-value op v].  Equality goes
   through the bucket table on any kind; order comparisons need the
   sorted view and count as one range probe regardless of span size. *)
let iter_matching t op v f =
  match op with
  | Value.Eq -> List.iter f (probe t [ v ])
  | Value.Lt | Value.Le | Value.Gt | Value.Ge ->
    count_probe t;
    Obs.Metrics.incr "secondary.range_scans";
    let lo, hi = span t op v in
    for i = lo to hi - 1 do
      List.iter f (snd t.sorted.(i))
    done
  | Value.Ne ->
    count_probe t;
    Value_key.fold_matching_entries ~source:t.source t.tbl op v
      (fun () _ bucket -> List.iter f bucket)
      ()

(* The probes of a declared index standing in for the collection
   phase's per-query {!Index} (paper Section 3.2's permanent index):
   entries tagged with the same stable ordinals {!Index} reports, and
   order comparisons walk the bucket table rather than the sorted view.
   Neither writes the index beyond its atomic probe counter —
   concurrent snapshot readers share it. *)
let fold_matching_entries t op v f init =
  count_probe t;
  Value_key.fold_matching_entries ~source:t.source t.tbl op v f init

let exists_matching t op v =
  count_probe t;
  Value_key.exists_matching ~source:t.source t.tbl op v

(* Exact fraction of the indexed tuples matching [op v] — the planner's
   selectivity figure.  O(1) for equality (bucket length), O(log n) for
   order comparisons (prefix counts over the sorted view).  Uncounted:
   this is planning, not execution. *)
let matching_fraction t op v =
  if t.entry_count = 0 then 0.0
  else
    let total = float_of_int t.entry_count in
    match op with
    | Value.Eq ->
      float_of_int (List.length (Value_key.find_multi t.tbl [ v ])) /. total
    | Value.Ne ->
      1.0
      -. float_of_int (List.length (Value_key.find_multi t.tbl [ v ]))
         /. total
    | Value.Lt | Value.Le | Value.Gt | Value.Ge ->
      let lo, hi = span t op v in
      float_of_int (t.prefix.(hi) - t.prefix.(lo)) /. total

(* All indexed tuples, sorted — the deterministic enumeration the
   snapshot serializer writes as this index's pages. *)
let to_list t =
  List.sort Tuple.compare
    (Value_key.Table.fold (fun _ b acc -> List.rev_append b acc) t.tbl [])

(* Full consistency check against the source relation: same
   cardinality, every tuple present in its own bucket, no strays.
   Test-suite teeth for the maintenance paths. *)
let consistent_with t rel =
  t.entry_count = Relation.cardinality rel
  && Value_key.Table.fold
       (fun key bucket acc ->
         acc
         && List.for_all
              (fun tup ->
                Relation.mem_tuple rel tup
                && List.equal Value.equal key (key_of t tup))
              bucket)
       t.tbl true
  && Relation.for_all
       (fun tup ->
         List.exists (Tuple.equal tup)
           (Value_key.find_multi t.tbl (key_of t tup)))
       rel
