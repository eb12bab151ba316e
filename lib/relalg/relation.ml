(* Keyed relations: the PASCAL/R RELATION type.

   A relation is a mutable set of identically structured tuples in which
   the declared key functionally determines the element.  Element access
   by key value is the paper's *selected variable* rel[keyval]
   (Section 3.1); [scan] is the one-element-at-a-time read of the
   FOR EACH loops of Examples 4.2/4.3.  Scans and key probes are counted
   in the domain-local {!Obs.Metrics} registry, never on the handle
   (which concurrent snapshot readers share): [relation.scans] and
   [relation.probes] in total, and [relation.scans.<name>] per named
   relation, so the benchmark harness can verify strategy 1's claim
   that "each range relation is read no more than once" as a counter
   delta around one execution. *)

(* The tuple table: a persistent hash array mapped trie of the elements,
   addressed by the hash of their key values and held in one mutable
   field.  Leaves are the tuples themselves: a key is read off its
   tuple at the schema's key positions [pos], never stored apart, and a
   key-value list hashes exactly as the tuple carrying it.  A branch
   keeps a 32-bit occupancy bitmap over the next five hash bits and an
   array of its present children in slot order; elements whose whole
   key hashes agree share one [Multi] node.  A mutation copies the
   O(log32 n) branches on its key's path and shares every other node,
   so {!copy} is an O(1) record copy and the state a copy (a pinned
   snapshot) holds is never changed.  Iteration follows hash order.
   Hashing the key once is why this is not a [Map] on key lists: a map
   compares key lists O(log2 n) times per lookup, which cost the
   ad-hoc and division benchmark workloads 5-7% of their throughput. *)
module Key_trie = struct
  type t =
    | Empty
    | Leaf of Tuple.t
    | Multi of int * Tuple.t list  (* >= 2 elements, one key hash *)
    | Branch of int * t array  (* occupancy bitmap, present children *)

  let bits = 5

  let hash_key k =
    List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 k land max_int

  let hash_tuple pos (t : Tuple.t) =
    let acc = ref 17 in
    for i = 0 to Array.length pos - 1 do
      acc := (!acc * 31) + Value.hash t.(pos.(i))
    done;
    !acc land max_int

  (* Does [t] carry the key values [k]? *)
  let carries pos k (t : Tuple.t) =
    let rec go i = function
      | [] -> i = Array.length pos
      | v :: rest ->
        i < Array.length pos && Value.equal v t.(pos.(i)) && go (i + 1) rest
    in
    go 0 k

  let same_key pos (a : Tuple.t) (b : Tuple.t) =
    let rec go i =
      i >= Array.length pos || (Value.equal a.(pos.(i)) b.(pos.(i)) && go (i + 1))
    in
    go 0

  (* Set bits of a bitmap below 2^32. *)
  let popcount x =
    let x = x - ((x lsr 1) land 0x55555555) in
    let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
    let x = (x + (x lsr 4)) land 0x0f0f0f0f in
    ((x * 0x01010101) land 0xffffffff) lsr 24

  let slot h shift = 1 lsl ((h lsr shift) land 31)
  let index bm bit = popcount (bm land (bit - 1))

  (* The element with key hash [h] that [matches pos x].  [matches] is
     a top-level function ({!carries} or {!same_key}) and its data
     rides along, so a lookup allocates no closure. *)
  let rec find h matches pos x shift = function
    | Empty -> None
    | Leaf t -> if matches pos x t then Some t else None
    | Multi (h', l) ->
      if h = h' then List.find_opt (matches pos x) l else None
    | Branch (bm, kids) ->
      let bit = slot h shift in
      if bm land bit = 0 then None
      else
        find h matches pos x (shift + bits)
          (Array.unsafe_get kids (index bm bit))

  (* A branch holding two nodes whose whole hashes differ. *)
  let rec join shift h1 n1 h2 n2 =
    let b1 = slot h1 shift and b2 = slot h2 shift in
    if b1 = b2 then Branch (b1, [| join (shift + bits) h1 n1 h2 n2 |])
    else Branch (b1 lor b2, if b1 < b2 then [| n1; n2 |] else [| n2; n1 |])

  let with_kid kids i kid =
    let kids = Array.copy kids in
    kids.(i) <- kid;
    kids

  exception Bound

  (* The trie with [t] (key hash [h]) added.  @raise Bound if its key is
     bound already. *)
  let rec add pos h t shift node =
    match node with
    | Empty -> Leaf t
    | Leaf u ->
      if same_key pos t u then raise_notrace Bound
      else
        let h' = hash_tuple pos u in
        if h = h' then Multi (h, [ t; u ]) else join shift h' node h (Leaf t)
    | Multi (h', l) ->
      if h <> h' then join shift h' node h (Leaf t)
      else if List.exists (same_key pos t) l then raise_notrace Bound
      else Multi (h, t :: l)
    | Branch (bm, kids) ->
      let bit = slot h shift in
      let i = index bm bit in
      if bm land bit = 0 then begin
        let n = Array.length kids in
        let out = Array.make (n + 1) (Leaf t) in
        Array.blit kids 0 out 0 i;
        Array.blit kids i out (i + 1) (n - i);
        Branch (bm lor bit, out)
      end
      else Branch (bm, with_kid kids i (add pos h t (shift + bits) kids.(i)))

  (* The trie without the element carrying key [k] (hash [h]). *)
  let rec remove pos h k shift node =
    match node with
    | Empty -> node
    | Leaf t -> if carries pos k t then Empty else node
    | Multi (h', l) -> (
      if h <> h' then node
      else
        match List.filter (fun t -> not (carries pos k t)) l with
        | [ t ] -> Leaf t
        | l' -> if List.compare_lengths l l' = 0 then node else Multi (h', l'))
    | Branch (bm, kids) -> (
      let bit = slot h shift in
      if bm land bit = 0 then node
      else
        let i = index bm bit in
        let kid = kids.(i) in
        match remove pos h k (shift + bits) kid with
        | kid' when kid' == kid -> node
        | Empty -> (
          let n = Array.length kids in
          match if n = 2 then kids.(1 - i) else Empty with
          (* A lone leaf needs no branch above it: its place is its key
             hash, which it keeps at any depth. *)
          | (Leaf _ | Multi _) as other -> other
          | Empty | Branch _ ->
            if n = 1 then Empty
            else
              let out = Array.make (n - 1) Empty in
              Array.blit kids 0 out 0 i;
              Array.blit kids (i + 1) out i (n - i - 1);
              Branch (bm land lnot bit, out))
        | kid' -> Branch (bm, with_kid kids i kid'))

  (* Walks loop over a branch's children rather than pass a partial
     application to [Array.iter]: a scan visits every branch, and must
     not allocate per branch. *)
  let rec iter f = function
    | Empty -> ()
    | Leaf t -> f t
    | Multi (_, l) -> List.iter f l
    | Branch (_, kids) ->
      for i = 0 to Array.length kids - 1 do
        iter f (Array.unsafe_get kids i)
      done

  let rec fold f trie acc =
    match trie with
    | Empty -> acc
    | Leaf t -> f t acc
    | Multi (_, l) -> List.fold_left (fun acc t -> f t acc) acc l
    | Branch (_, kids) ->
      let acc = ref acc in
      for i = 0 to Array.length kids - 1 do
        acc := fold f (Array.unsafe_get kids i) !acc
      done;
      !acc

  let rec exists p = function
    | Empty -> false
    | Leaf t -> p t
    | Multi (_, l) -> List.exists p l
    | Branch (_, kids) -> exists_from p kids 0

  and exists_from p kids i =
    i < Array.length kids
    && (exists p (Array.unsafe_get kids i) || exists_from p kids (i + 1))
end

type backing = {
  hf : Heap_file.t;
  pool : Buffer_pool.t;
  mutable dirty : bool;  (* deletions force a rebuild before the next scan *)
}

type t = {
  id : int;
      (* this state's own number: a memo compares it (with [version])
         where holding the state to compare physically would keep a
         retired state alive *)
  name : string;
  schema : Schema.t;
  pos : int array;  (* key positions: a tuple's key is read off these *)
  mutable tbl : Key_trie.t;
  mutable card : int;  (* element count; the trie keeps none *)
  mutable version : int;
      (* bumped on every content change (insert/delete/clear): with the
         state's identity, what a cached plan's emptiness answers and
         Batch's encode cache are validated against *)
  mutable backing : backing option;
  mutable frozen : bool;
      (* committed state of a durable database: snapshot readers may be
         iterating this relation, so content mutation must go through a
         write transaction's private copy; or a state a commit or an
         index declaration replaced in the catalog, where a write would
         be lost *)
  indexes : Secondary_index.t list;
      (* the secondary indexes over this state, in declaration order:
         maintained by every effective mutation below, so a copy, a
         commit, a snapshot load and a WAL replay each move one value *)
}

let next_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_id 1

let create ?(name = "") schema =
  {
    id = fresh_id ();
    name;
    schema;
    pos = Schema.key_positions schema;
    tbl = Key_trie.Empty;
    card = 0;
    version = 0;
    backing = None;
    frozen = false;
    indexes = [];
  }

let id r = r.id
let version r = r.version
let freeze r = r.frozen <- true
let frozen r = r.frozen

let check_unfrozen r op =
  if r.frozen then
    Errors.frozen
      "relation %s: %s on a frozen (snapshot-visible or retired) state; \
       re-fetch it, or mutate through a write transaction"
      r.name op

let name r = r.name
let schema r = r.schema
let cardinality r = r.card
let is_empty r = cardinality r = 0

let check_tuple r t =
  if Tuple.arity t <> Schema.arity r.schema then
    Errors.type_error "relation %s: tuple %s has arity %d, expected %d" r.name
      (Tuple.to_string t) (Tuple.arity t) (Schema.arity r.schema)
  else if not (Tuple.well_typed r.schema t) then
    Errors.type_error "relation %s: tuple %s violates attribute domains"
      r.name (Tuple.to_string t)

let lookup r key =
  Key_trie.find (Key_trie.hash_key key) Key_trie.carries r.pos key 0 r.tbl

(* The trie with [t] added.  @raise Key_trie.Bound if its key is bound. *)
let add r t = Key_trie.add r.pos (Key_trie.hash_tuple r.pos t) t 0 r.tbl

(* Install [tbl], the table with [t] bound under a fresh key: the one
   effective-insertion path. *)
let added r tbl t =
  r.tbl <- tbl;
  r.card <- r.card + 1;
  r.version <- r.version + 1;
  Obs.Metrics.incr "relation.inserts";
  (match r.indexes with
  | [] -> ()
  | idxs -> List.iter (fun i -> Secondary_index.add i t) idxs);
  match r.backing with
  | Some b -> (
    (* A failed append (torn write) leaves the heap file damaged while
       the key trie — the authoritative copy — already holds the tuple;
       mark the backing dirty so the next scan rebuilds it. *)
    try Heap_file.append b.hf (Codec.encode_tuple r.schema t)
    with e ->
      b.dirty <- true;
      raise e)
  | None -> ()

(* PASCAL/R insertion [:+].  Inserting an element already present is a
   no-op; inserting a different element with the same key violates the
   key constraint. *)
let insert r t =
  check_unfrozen r "insert";
  check_tuple r t;
  match add r t with
  | tbl -> added r tbl t
  | exception Key_trie.Bound ->
    let key = Tuple.key_of r.schema t in
    let existing = Option.get (lookup r key) in
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
   duplicate key IS an equal tuple, so keeping the bound element stores
   the same set, and one walk both finds the key and adds it. *)
let insert_unchecked r t =
  check_unfrozen r "insert";
  match add r t with
  | tbl -> added r tbl t
  | exception Key_trie.Bound -> ()

let delete_key r key =
  check_unfrozen r "delete";
  Obs.Metrics.incr "relation.probes";
  (match lookup r key with
  | Some victim ->
    r.tbl <- Key_trie.remove r.pos (Key_trie.hash_key key) key 0 r.tbl;
    r.card <- r.card - 1;
    r.version <- r.version + 1;
    (match r.indexes with
    | [] -> ()
    | idxs -> List.iter (fun i -> Secondary_index.remove i victim) idxs)
  | None -> ());
  match r.backing with Some b -> b.dirty <- true | None -> ()

let clear r =
  check_unfrozen r "clear";
  if r.card > 0 then begin
    r.version <- r.version + 1;
    r.tbl <- Key_trie.Empty;
    r.card <- 0;
    List.iter Secondary_index.clear r.indexes
  end;
  match r.backing with Some b -> b.dirty <- true | None -> ()

(* Selected variable rel[keyval]. *)
let find_key r key =
  Obs.Metrics.incr "relation.probes";
  lookup r key

let find_key_exn r key =
  match find_key r key with
  | Some t -> t
  | None ->
    raise
      (Errors.Dangling_reference
         (Fmt.str "%s[%a]" r.name (Fmt.list ~sep:Fmt.comma Value.pp) key))

let mem_key r key =
  Obs.Metrics.incr "relation.probes";
  Option.is_some (lookup r key)

let mem_tuple r t =
  let h = Key_trie.hash_tuple r.pos t in
  match Key_trie.find h Key_trie.same_key r.pos t 0 r.tbl with
  | Some t' -> Tuple.equal t t'
  | None -> false

(* Uninstrumented iteration (administrative walks: printing, rebuilding
   a heap file), in hash order. *)
let iter f r = Key_trie.iter f r.tbl
let fold f init r = Key_trie.fold (fun t acc -> f acc t) r.tbl init

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

let buffer_pool r =
  match r.backing with Some b -> Some b.pool | None -> None

let backing_pages r =
  match r.backing with
  | Some b -> Some (Heap_file.page_count b.hf)
  | None -> None

(* The one site that counts a scan: the total, and the paper's
   per-relation S1 count for a named relation. *)
let count_scan r =
  Obs.Metrics.incr "relation.scans";
  if not (String.equal r.name "") then
    Obs.Metrics.incr ("relation.scans." ^ r.name)

(* Instrumented full scan: the engine's one-element-at-a-time read.
   Paged relations decode their tuples from the heap file through the
   buffer pool.

   When the fault-injection framework is active the scan runs in a
   recoverable mode: tuples are buffered and delivered only once the
   whole file decoded cleanly, and a detected {!Errors.Corruption}
   (checksum mismatch, short read, undecodable record) triggers one
   invalidate-and-rebuild from the authoritative key trie before the
   error is allowed to surface.  With no failpoint armed the original
   zero-copy streaming path runs unchanged. *)
let scan f r =
  count_scan r;
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
             from the key trie, and retry once; a second corruption
             (e.g. an every-K trigger) propagates as the typed error. *)
          Obs.Metrics.incr "storage.recovery_rebuilds";
          rebuild_backing r b;
          decode_all ()
      in
      List.iter f tuples
    end

exception Witness

(* One counted scan that stops at the first element satisfying [p]; on
   paged storage it decodes no page past the witness's. *)
let scan_exists p r =
  match r.backing with
  | None ->
    count_scan r;
    Key_trie.exists p r.tbl
  | Some _ -> (
    try
      scan (fun t -> if p t then raise_notrace Witness) r;
      false
    with Witness -> true)

(* Short-circuiting quantifiers: [for_all] sits on the division and
   [equal_set] paths, so bail out on the first witness instead of
   folding the whole key trie. *)
let exists p r = Key_trie.exists p r.tbl
let for_all p r = not (Key_trie.exists (fun t -> not (p t)) r.tbl)

(* Sorted through an array: a list sort would allocate a fresh list per
   merge level, and snapshot serialization sorts every relation. *)
let sorted r =
  let a = Array.make r.card [||] in
  ignore (fold (fun i t -> a.(i) <- t; i + 1) 0 r : int);
  Array.stable_sort Tuple.compare a;
  a

let to_list r = Array.to_list (sorted r)

let of_list ?name schema ts =
  let r = create ?name schema in
  insert_list r ts;
  r

(* O(1) in the relation's size: the copy shares the original's trie
   and index maps, and a mutation of either replaces only its own
   fields.  The copy continues the original's version lineage under a
   new [id], so it never passes for the original in a memo. *)
let copy r =
  {
    r with
    id = fresh_id ();
    backing = None;
    frozen = false;
    indexes = List.map Secondary_index.copy r.indexes;
  }

(* --- Secondary indexes ---------------------------------------------- *)

let indexes r = r.indexes

(* Build by one counted scan — the read the paper's per-query index
   build pays, paid once per declaration. *)
let build_index r ~on =
  let idx = Secondary_index.create ~source:r.name r.schema ~on in
  scan (Secondary_index.add idx) r;
  idx

(* A new state: this one's tuples, storage and frozen flag, plus [idx].
   The other indexes are copied, so later writes to either state leave
   the other's indexes alone. *)
let with_index r idx =
  {
    r with
    id = fresh_id ();
    indexes = List.map Secondary_index.copy r.indexes @ [ idx ];
  }

let rebuild_indexes r =
  {
    r with
    id = fresh_id ();
    indexes =
      List.map (fun i -> build_index r ~on:(Secondary_index.on i)) r.indexes;
  }

let index_consistent r idx =
  Secondary_index.entry_count idx = r.card
  && Secondary_index.well_keyed idx (mem_tuple r)
  && for_all (Secondary_index.mem idx) r

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
