(* Persistent secondary indexes.

   Unlike {!Index} — the paper's throwaway per-query structure, built by
   a counted scan and discarded with the query — a secondary index is a
   catalogued access path: declared once per component list, maintained
   incrementally through every relation mutation (via {!Relation}
   observers), copied on first write by MVCC transactions alongside the
   relation copy, and persisted inside database snapshots as
   checksummed pages.  A single-component one is also the paper's
   permanent index (Section 3.2), standing in for a per-query build.

   The buckets live in a persistent map from component values to
   immutable tuple lists, ordered by {!Value.compare_list} and held in
   one mutable field.  Maintenance replaces the field, so {!copy} is an
   O(1) record copy that gives a write transaction a private index
   sharing every node with the committed one, and a committed index is
   never written by anyone — concurrent snapshot readers probe it
   freely.  Two physical kinds, one structure:
   - [Hash]: serves equality probes (an O(log n) bucket lookup).
   - [Sorted]: also serves S3-style range restrictions (<, <=, >, >=)
     by walking the ordered map from the span's bound, and answers
     "what fraction of the relation matches?" by summing the span's
     bucket lengths, stopping once the sum passes the cost model's
     range-scan cutoff — the figure its access-path choice runs on.

   Buckets store whole tuples, not references: a probe hands the
   executor ready tuples with no dereference, and a delete removes by
   tuple equality. *)

type kind = Hash | Sorted

let kind_to_string = function Hash -> "hash" | Sorted -> "sorted"

let kind_of_string = function
  | "hash" -> Hash
  | "sorted" -> Sorted
  | s -> Errors.type_error "unknown index kind %S" s

module Key_map = Map.Make (struct
  type t = Value.t list

  let compare = Value.compare_list
end)

type t = {
  source : string;
  on : string list;
  kind : kind;
  positions : int array;
  mutable tbl : Tuple.t list Key_map.t;  (* component values -> tuples *)
  mutable entry_count : int;
}

let source t = t.source
let on t = t.on
let kind t = t.kind
let entry_count t = t.entry_count

(* Probes are counted in the probing domain's own metrics registry,
   never on the index: one committed index is probed read-only by
   concurrent snapshot readers — server connections and client
   domains. *)
let count_probe () =
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
    tbl = Key_map.empty;
    entry_count = 0;
  }

let key_of t tuple = Array.to_list (Tuple.project t.positions tuple)
let bucket t key = Option.value (Key_map.find_opt key t.tbl) ~default:[]

(* --- Incremental maintenance (fed by Relation observers) ----------- *)

let on_insert t tuple =
  t.tbl <-
    Key_map.update (key_of t tuple)
      (function None -> Some [ tuple ] | Some b -> Some (tuple :: b))
      t.tbl;
  t.entry_count <- t.entry_count + 1;
  Obs.Metrics.incr "secondary.maintain_inserts"

let on_delete t tuple =
  let key = key_of t tuple in
  match Key_map.find_opt key t.tbl with
  | None -> ()
  | Some bucket ->
    let bucket' = List.filter (fun u -> not (Tuple.equal u tuple)) bucket in
    let removed = List.length bucket - List.length bucket' in
    if removed > 0 then begin
      (match bucket' with
      | [] -> t.tbl <- Key_map.remove key t.tbl
      | _ -> t.tbl <- Key_map.add key bucket' t.tbl);
      t.entry_count <- t.entry_count - removed;
      Obs.Metrics.incr "secondary.maintain_deletes"
    end

let on_clear t =
  t.tbl <- Key_map.empty;
  t.entry_count <- 0

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

(* MVCC copy-on-write in O(1): the copy shares the map, and maintenance
   of either side replaces only its own field. *)
let copy t = { t with tbl = t.tbl }

(* --- Probing -------------------------------------------------------- *)

let probe t key =
  count_probe ();
  bucket t key

let probe1 t v = probe t [ v ]

(* The one component of an index key, for an order comparison. *)
let single_key t = function
  | [ k ] -> k
  | _ ->
    Errors.type_error "range probe on a multi-component index over %s"
      t.source

(* The entries whose key satisfies [key op v], in ascending key order:
   [Gt]/[Ge] start at the span's lower bound, [Lt]/[Le] stop at its
   upper bound. *)
let span t op v =
  match op with
  | Value.Gt | Value.Ge ->
    Key_map.to_seq_from [ v ] t.tbl
    |> Seq.drop_while (fun (k, _) ->
           not (Value.apply op (single_key t k) v))
  | Value.Lt | Value.Le ->
    Key_map.to_seq t.tbl
    |> Seq.take_while (fun (k, _) -> Value.apply op (single_key t k) v)
  | Value.Eq | Value.Ne ->
    invalid_arg "Secondary_index.span: not an order comparison"

(* Enumerate tuples matching [indexed-value op v].  Equality looks up
   its bucket on any kind; an order comparison walks its span of the
   ordered map and counts as one range probe regardless of span size. *)
let iter_matching t op v f =
  match op with
  | Value.Eq -> List.iter f (probe t [ v ])
  | Value.Lt | Value.Le | Value.Gt | Value.Ge ->
    count_probe ();
    Obs.Metrics.incr "secondary.range_scans";
    Seq.iter (fun (_, b) -> List.iter f b) (span t op v)
  | Value.Ne ->
    count_probe ();
    Key_map.iter
      (fun k b -> if Value.apply Value.Ne (single_key t k) v then List.iter f b)
      t.tbl

(* The probes of a declared index standing in for the collection
   phase's per-query {!Index} (paper Section 3.2's permanent index).
   Each matching entry is tagged with its ordinal in key order — its
   identity while the index is unmodified, which a pinned index always
   is; [Eq] finds its bucket by lookup and reports no ordinal. *)
let fold_matching_entries t op v f init =
  count_probe ();
  match op with
  | Value.Eq -> f init None (bucket t [ v ])
  | Value.Ne | Value.Lt | Value.Le | Value.Gt | Value.Ge ->
    let ord = ref (-1) in
    Key_map.fold
      (fun k b acc ->
        incr ord;
        if Value.apply op (single_key t k) v then f acc (Some !ord) b
        else acc)
      t.tbl init

(* Existence version of [fold_matching_entries]: buckets are never
   empty, so an order comparison needs only the map's extreme key. *)
let exists_matching t op v =
  count_probe ();
  let holds = function
    | Some (k, _) -> Value.apply op (single_key t k) v
    | None -> false
  in
  match op with
  | Value.Eq -> Key_map.mem [ v ] t.tbl
  | Value.Lt | Value.Le -> holds (Key_map.min_binding_opt t.tbl)
  | Value.Gt | Value.Ge -> holds (Key_map.max_binding_opt t.tbl)
  | Value.Ne ->
    holds (Key_map.min_binding_opt t.tbl)
    || holds (Key_map.max_binding_opt t.tbl)

(* Exact fraction of the indexed tuples matching [op v] — the planner's
   selectivity figure: one bucket lookup for (in)equality, the sum of
   the span's bucket lengths for an order comparison.  The span walk
   stops once the count passes [cap] of the entries, and then answers
   the fraction counted so far, already above [cap].  Uncounted: this
   is planning, not execution. *)
let matching_fraction ~cap t op v =
  if t.entry_count = 0 then 0.0
  else
    let total = float_of_int t.entry_count in
    let eq = float_of_int (List.length (bucket t [ v ])) /. total in
    match op with
    | Value.Eq -> eq
    | Value.Ne -> 1.0 -. eq
    | Value.Lt | Value.Le | Value.Gt | Value.Ge ->
      let limit = cap *. total in
      let rec count n s =
        if float_of_int n > limit then n
        else
          match s () with
          | Seq.Nil -> n
          | Seq.Cons ((_, b), rest) -> count (n + List.length b) rest
      in
      float_of_int (count 0 (span t op v)) /. total

(* All indexed tuples, sorted — the deterministic enumeration the
   snapshot serializer writes as this index's pages. *)
let to_list t =
  let a = Array.make t.entry_count [||] and i = ref 0 in
  Key_map.iter
    (fun _ b ->
      List.iter
        (fun tup ->
          a.(!i) <- tup;
          incr i)
        b)
    t.tbl;
  Array.stable_sort Tuple.compare a;
  Array.to_list a

(* Full consistency check against the source relation: same
   cardinality, every tuple present in its own bucket, no strays.
   Test-suite teeth for the maintenance paths. *)
let consistent_with t rel =
  t.entry_count = Relation.cardinality rel
  && Key_map.for_all
       (fun key bucket ->
         List.for_all
           (fun tup ->
             Relation.mem_tuple rel tup
             && List.equal Value.equal key (key_of t tup))
           bucket)
       t.tbl
  && Relation.for_all
       (fun tup -> List.exists (Tuple.equal tup) (bucket t (key_of t tup)))
       rel
