(* Keyed relations: the PASCAL/R RELATION type.

   A relation is a mutable set of identically structured tuples in which
   the declared key functionally determines the element.  Element access
   by key value is the paper's *selected variable* rel[keyval]
   (Section 3.1); [scan] is the one-element-at-a-time read of the
   FOR EACH loops of Examples 4.2/4.3 and is instrumented with a scan
   counter so the benchmark harness can verify strategy 1's claim that
   "each range relation is read no more than once". *)

module Key_table = Hashtbl.Make (struct
  type t = Value.t list

  let equal = List.equal Value.equal
  let hash k = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 k
end)

type backing = {
  hf : Heap_file.t;
  pool : Buffer_pool.t;
  mutable dirty : bool;  (* deletions force a rebuild before the next scan *)
}

(* Content-change events, delivered to registered observers on every
   *effective* mutation (an idempotent re-insert or a miss delete fires
   nothing).  The database layer hooks secondary indexes in through
   these, so index maintenance rides every mutation path — direct
   handle writes, transaction copies, WAL replay — without the relation
   knowing what an index is. *)
type event = Inserted of Tuple.t | Deleted of Tuple.t | Cleared

type t = {
  name : string;
  schema : Schema.t;
  tbl : Tuple.t Key_table.t;
  mutable scans : int;   (* completed full scans *)
  mutable probes : int;  (* key lookups *)
  mutable version : int;
      (* bumped on every content change (insert/delete/clear); feeds the
         database stats epoch that invalidates cached plans *)
  mutable backing : backing option;
  mutable frozen : bool;
      (* committed state of a durable database: snapshot readers may be
         iterating this relation, so content mutation must go through a
         write transaction's private copy *)
  mutable observers : (event -> unit) list;
      (* not carried by [copy]: a transaction's private copy starts
         unobserved and the database layer attaches its own hooks *)
}

(* [size_hint] presizes the key table: operators that know their output
   bound (a stream materialization knows its source cardinality)
   allocate the buckets once instead of growing through the doubling
   ladder.  Purely a capacity hint — contents and semantics are
   unaffected. *)
let create ?(name = "") ?(size_hint = 0) schema =
  {
    name;
    schema;
    tbl = Key_table.create (max 64 size_hint);
    scans = 0;
    probes = 0;
    version = 0;
    backing = None;
    frozen = false;
    observers = [];
  }

let add_observer r f = r.observers <- f :: r.observers
let clear_observers r = r.observers <- []

let notify r ev =
  match r.observers with [] -> () | obs -> List.iter (fun f -> f ev) obs

let version r = r.version

(* MVCC lineage continuation: a write transaction's private copy starts
   at the version of the relation state it was copied from, so the
   database stats epoch stays strictly monotone across installs (a
   fresh copy's version would otherwise reset to its cardinality and
   collide with an earlier epoch, letting a stale cached plan hit). *)
let set_version r v = r.version <- v
let freeze r = r.frozen <- true
let frozen r = r.frozen

let check_unfrozen r op =
  if r.frozen then
    Errors.frozen
      "relation %s: %s on a frozen (snapshot-visible) state; mutate through \
       a write transaction"
      r.name op

let name r = r.name
let schema r = r.schema
let cardinality r = Key_table.length r.tbl
let is_empty r = cardinality r = 0

let check_tuple r t =
  if Tuple.arity t <> Schema.arity r.schema then
    Errors.type_error "relation %s: tuple %s has arity %d, expected %d" r.name
      (Tuple.to_string t) (Tuple.arity t) (Schema.arity r.schema)
  else if not (Tuple.well_typed r.schema t) then
    Errors.type_error "relation %s: tuple %s violates attribute domains"
      r.name (Tuple.to_string t)

(* PASCAL/R insertion [:+].  Inserting an element already present is a
   no-op; inserting a different element with the same key violates the
   key constraint. *)
let insert r t =
  check_unfrozen r "insert";
  check_tuple r t;
  let key = Tuple.key_of r.schema t in
  match Key_table.find_opt r.tbl key with
  | None ->
    Key_table.replace r.tbl key t;
    r.version <- r.version + 1;
    Obs.Metrics.incr "relation.inserts";
    notify r (Inserted t);
    (match r.backing with
    | Some b -> (
      (* A failed append (torn write) leaves the heap file damaged while
         the key table — the authoritative copy — already holds the
         tuple; mark the backing dirty so the next scan rebuilds it. *)
      try Heap_file.append b.hf (Codec.encode_tuple r.schema t)
      with e ->
        b.dirty <- true;
        raise e)
    | None -> ())
  | Some existing ->
    if not (Tuple.equal existing t) then
      raise
        (Errors.Duplicate_key
           (Fmt.str "relation %s: key %a already bound to %a, cannot insert %a"
              r.name
              (Fmt.list ~sep:Fmt.comma Value.pp)
              key Tuple.pp existing Tuple.pp t))

let insert_list r ts = List.iter (insert r) ts

(* Fast-path insertion for operator outputs whose tuples are well typed
   by construction (projections/concatenations of tuples read from
   already-checked relations, under the derived schema).  Intended for
   whole-tuple-key intermediates only: under a whole-tuple key a
   duplicate key IS an equal tuple, so the unconditional [replace]
   stores the same set either way and [Hashtbl.replace] keeps the
   bucket position, leaving iteration order untouched.  The single
   [replace] hashes the key once where a mem-then-replace pair would
   hash twice; growth is detected by the table's length. *)
let insert_unchecked r t =
  check_unfrozen r "insert";
  let key = Tuple.key_of r.schema t in
  let before = Key_table.length r.tbl in
  Key_table.replace r.tbl key t;
  if Key_table.length r.tbl <> before then begin
    r.version <- r.version + 1;
    Obs.Metrics.incr "relation.inserts";
    notify r (Inserted t);
    match r.backing with
    | Some b -> (
      try Heap_file.append b.hf (Codec.encode_tuple r.schema t)
      with e ->
        b.dirty <- true;
        raise e)
    | None -> ()
  end

let delete_key r key =
  check_unfrozen r "delete";
  r.probes <- r.probes + 1;
  Obs.Metrics.incr "relation.probes";
  (match Key_table.find_opt r.tbl key with
  | Some victim ->
    Key_table.remove r.tbl key;
    r.version <- r.version + 1;
    notify r (Deleted victim)
  | None -> ());
  match r.backing with Some b -> b.dirty <- true | None -> ()

let clear r =
  check_unfrozen r "clear";
  if Key_table.length r.tbl > 0 then begin
    r.version <- r.version + 1;
    Key_table.reset r.tbl;
    notify r Cleared
  end
  else Key_table.reset r.tbl;
  match r.backing with Some b -> b.dirty <- true | None -> ()

(* Selected variable rel[keyval]. *)
let find_key r key =
  r.probes <- r.probes + 1;
  Obs.Metrics.incr "relation.probes";
  Key_table.find_opt r.tbl key

let find_key_exn r key =
  match find_key r key with
  | Some t -> t
  | None ->
    raise
      (Errors.Dangling_reference
         (Fmt.str "%s[%a]" r.name (Fmt.list ~sep:Fmt.comma Value.pp) key))

let mem_key r key =
  r.probes <- r.probes + 1;
  Obs.Metrics.incr "relation.probes";
  Key_table.mem r.tbl key

let mem_tuple r t =
  match Key_table.find_opt r.tbl (Tuple.key_of r.schema t) with
  | Some t' -> Tuple.equal t t'
  | None -> false

(* Uninstrumented iteration (administrative walks: printing, copying). *)
let iter f r = Key_table.iter (fun _ t -> f t) r.tbl
let fold f init r = Key_table.fold (fun _ t acc -> f acc t) r.tbl init

(* Rebuild a dirty heap file from the current contents.  The dirty flag
   drops only once the rebuild completes, so a fault mid-rebuild (e.g.
   an injected torn write) leaves the backing marked for another
   rebuild rather than silently half-built. *)
let rebuild_backing r b =
  b.dirty <- true;
  Heap_file.clear b.hf;
  Buffer_pool.invalidate_file b.pool ~file:(Heap_file.file_id b.hf);
  iter (fun t -> Heap_file.append b.hf (Codec.encode_tuple r.schema t)) r;
  b.dirty <- false

(* Attach paged storage: the current contents are written to a fresh
   heap file; from now on full scans decode the pages through [pool]
   (whose miss count is the simulated disk I/O), and insertions append
   to the file.  Deletions mark the file dirty; it is rebuilt before the
   next scan. *)
let attach_storage r ~pool =
  let b = { hf = Heap_file.create (); pool; dirty = false } in
  r.backing <- Some b;
  rebuild_backing r b

let detach_storage r = r.backing <- None

let buffer_pool r =
  match r.backing with Some b -> Some b.pool | None -> None

let backing_pages r =
  match r.backing with
  | Some b -> Some (Heap_file.page_count b.hf)
  | None -> None

(* Instrumented full scan: the engine's one-element-at-a-time read.
   Paged relations decode their tuples from the heap file through the
   buffer pool.

   When the fault-injection framework is active the scan runs in a
   recoverable mode: tuples are buffered and delivered only once the
   whole file decoded cleanly, and a detected {!Errors.Corruption}
   (checksum mismatch, short read, undecodable record) triggers one
   invalidate-and-rebuild from the authoritative key table before the
   error is allowed to surface.  With no failpoint armed the original
   zero-copy streaming path runs unchanged. *)
let scan f r =
  r.scans <- r.scans + 1;
  Obs.Metrics.incr "relation.scans";
  match r.backing with
  | None -> iter f r
  | Some b ->
    if b.dirty then rebuild_backing r b;
    if not (Failpoint.any_armed ()) then
      Heap_file.iter ~pool:b.pool b.hf (fun bytes ->
          f (Codec.decode_tuple r.schema bytes))
    else begin
      let decode_all () =
        let acc = ref [] in
        Heap_file.iter ~pool:b.pool b.hf (fun bytes ->
            acc := Codec.decode_tuple r.schema bytes :: !acc);
        List.rev !acc
      in
      let tuples =
        try decode_all ()
        with Errors.Corruption _ ->
          (* Invalidate the damaged file's frames, refetch by rebuilding
             from the key table, and retry once; a second corruption
             (e.g. an every-K trigger) propagates as the typed error. *)
          Obs.Metrics.incr "storage.recovery_rebuilds";
          rebuild_backing r b;
          decode_all ()
      in
      List.iter f tuples
    end

let scan_fold f init r =
  match r.backing with
  | None ->
    r.scans <- r.scans + 1;
    Obs.Metrics.incr "relation.scans";
    fold f init r
  | Some _ ->
    let acc = ref init in
    scan (fun t -> acc := f !acc t) r;
    !acc

(* Short-circuiting quantifiers: [for_all] sits on the division and
   [equal_set] paths, so bail out on the first witness instead of
   folding the whole key table. *)
exception Decided

let exists p r =
  try
    iter (fun t -> if p t then raise Decided) r;
    false
  with Decided -> true

let for_all p r =
  try
    iter (fun t -> if not (p t) then raise Decided) r;
    true
  with Decided -> false

let scan_count r = r.scans
let probe_count r = r.probes

let reset_counters r =
  r.scans <- 0;
  r.probes <- 0

let to_list r = List.sort Tuple.compare (fold (fun acc t -> t :: acc) [] r)

let of_list ?name schema ts =
  let r = create ?name schema in
  insert_list r ts;
  r

let copy ?name r =
  let fresh = create ~name:(Option.value name ~default:r.name) r.schema in
  iter (insert fresh) r;
  fresh

let equal_set a b =
  cardinality a = cardinality b
  && for_all (fun t -> mem_tuple b t) a

let subset a b = for_all (fun t -> mem_tuple b t) a

let pp ppf r =
  Fmt.pf ppf "@[<v2>%s (%d elements):@ %a@]"
    (if String.equal r.name "" then "<anonymous>" else r.name)
    (cardinality r)
    (Fmt.list ~sep:Fmt.cut Tuple.pp)
    (to_list r)
