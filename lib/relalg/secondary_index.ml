(* Persistent secondary indexes.

   Unlike {!Index} — the paper's throwaway per-query structure, built by
   a counted scan and discarded with the query — a secondary index is a
   catalogued access path over one relation state: declared once per
   component list, carried by the {!Relation.t} it indexes (which
   maintains it inside its own insert, delete and clear, and copies it
   with itself), and persisted inside database snapshots as checksummed
   pages.  A single-component one is also the paper's permanent index
   (Section 3.2), standing in for a per-query build.  This module knows
   only a schema and tuples; the relation owns the index.

   The buckets live in a persistent map from component values to
   persistent tuple sets, ordered by {!Value.compare_list} and
   {!Tuple.compare}, and held in one mutable field.  Maintenance
   replaces the field, so {!copy} is an O(1) record copy that gives a
   write transaction a private index sharing every node with the
   committed one, and a committed index is never written by anyone —
   concurrent snapshot readers probe it freely.  Both levels are
   ordered trees, so an insert or a delete is logarithmic in the bucket
   as well as in the key count: deleting one row under a value shared
   by half the relation touches O(log n) nodes, not the bucket.

   Equality probes look up their bucket; order comparisons (<, <=, >,
   >=) walk the ordered map from the span's bound, and "what fraction
   of the relation matches?" sums the span's bucket sizes, stopping once
   the sum passes the cost model's range-scan cutoff — the figure the
   collection phase's access-path choice runs on.  Buckets store whole
   tuples, not references: a probe hands the executor ready tuples with
   no dereference. *)

module Key_map = Map.Make (struct
  type t = Value.t list

  let compare = Value.compare_list
end)

module Bucket = Set.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

type t = {
  source : string;
  on : string list;
  positions : int array;
  mutable tbl : Bucket.t Key_map.t;  (* component values -> tuples *)
  mutable entry_count : int;
}

let on t = t.on
let entry_count t = t.entry_count

(* Probes are counted in the probing domain's own metrics registry,
   never on the index: one committed index is probed read-only by
   concurrent snapshot readers — server connections and client
   domains. *)
let count_probe () =
  Obs.Metrics.incr "index.probes";
  Obs.Metrics.incr "secondary.probes"

let create ~source schema ~on =
  if on = [] then Errors.schema_error "secondary index needs components";
  let positions = Array.of_list (List.map (Schema.index_of schema) on) in
  { source; on; positions; tbl = Key_map.empty; entry_count = 0 }

let key_of t tuple = Tuple.values_at t.positions tuple

let bucket t key =
  Option.value (Key_map.find_opt key t.tbl) ~default:Bucket.empty

(* --- Maintenance (called by the owning relation) -------------------- *)

let add t tuple =
  t.tbl <-
    Key_map.update (key_of t tuple)
      (function
        | None -> Some (Bucket.singleton tuple)
        | Some b -> Some (Bucket.add tuple b))
      t.tbl;
  t.entry_count <- t.entry_count + 1

let remove t tuple =
  let key = key_of t tuple in
  match Key_map.find_opt key t.tbl with
  | Some b when Bucket.mem tuple b ->
    let b' = Bucket.remove tuple b in
    t.tbl <-
      (if Bucket.is_empty b' then Key_map.remove key t.tbl
       else Key_map.add key b' t.tbl);
    t.entry_count <- t.entry_count - 1
  | Some _ | None -> ()

let clear t =
  t.tbl <- Key_map.empty;
  t.entry_count <- 0

let mem t tuple = Bucket.mem tuple (bucket t (key_of t tuple))

(* Rebuild from stored snapshot pages: the tuples were decoded from the
   index's own persisted section, no relation scan involved. *)
let of_tuples ~source schema ~on tuples =
  let t = create ~source schema ~on in
  List.iter (add t) tuples;
  t

(* MVCC copy-on-write in O(1): the copy shares the map, and maintenance
   of either side replaces only its own field. *)
let copy t = { t with tbl = t.tbl }

(* --- Probing -------------------------------------------------------- *)

let probe1 t v =
  count_probe ();
  Bucket.elements (bucket t [ v ])

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
   its bucket; an order comparison walks its span of the ordered map
   and counts as one range probe regardless of span size.  The
   uncounted form is for an indirect-join build, which probes once per
   element and counts its probes itself. *)
let iter_matching_uncounted t op v f =
  match op with
  | Value.Eq -> Bucket.iter f (bucket t [ v ])
  | Value.Lt | Value.Le | Value.Gt | Value.Ge ->
    Seq.iter (fun (_, b) -> Bucket.iter f b) (span t op v)
  | Value.Ne ->
    Key_map.iter
      (fun k b -> if Value.apply Value.Ne (single_key t k) v then Bucket.iter f b)
      t.tbl

let iter_matching t op v f =
  count_probe ();
  (match op with
  | Value.Lt | Value.Le | Value.Gt | Value.Ge ->
    Obs.Metrics.incr "secondary.range_scans"
  | Value.Eq | Value.Ne -> ());
  iter_matching_uncounted t op v f

(* Existence version of [iter_matching]: buckets are never
   empty, so an order comparison needs only the map's extreme key.
   Uncounted, as its one caller, an indirect-join build, counts its
   probes itself. *)
let exists_matching t op v =
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
   the span's bucket sizes for an order comparison.  The span walk
   stops once the count passes [cap] of the entries, and then answers
   the fraction counted so far, already above [cap].  Uncounted: this
   is planning, not execution. *)
let matching_fraction ~cap t op v =
  if t.entry_count = 0 then 0.0
  else
    let total = float_of_int t.entry_count in
    let eq () = float_of_int (Bucket.cardinal (bucket t [ v ])) /. total in
    match op with
    | Value.Eq -> eq ()
    | Value.Ne -> 1.0 -. eq ()
    | Value.Lt | Value.Le | Value.Gt | Value.Ge ->
      let limit = cap *. total in
      let rec count n s =
        if float_of_int n > limit then n
        else
          match s () with
          | Seq.Nil -> n
          | Seq.Cons ((_, b), rest) -> count (n + Bucket.cardinal b) rest
      in
      float_of_int (count 0 (span t op v)) /. total

(* All indexed tuples, sorted — the deterministic enumeration the
   snapshot serializer writes as this index's pages. *)
let sorted t =
  let a = Array.make t.entry_count [||] and i = ref 0 in
  Key_map.iter
    (fun _ b ->
      Bucket.iter
        (fun tup ->
          a.(!i) <- tup;
          incr i)
        b)
    t.tbl;
  Array.stable_sort Tuple.compare a;
  a

(* Every entry sits in the bucket of its own component values and
   satisfies [p]; with {!mem} and the entry count, the owning
   relation's consistency check. *)
let well_keyed t p =
  Key_map.for_all
    (fun key b ->
      Bucket.for_all
        (fun tup -> p tup && List.equal Value.equal key (key_of t tup))
        b)
    t.tbl
