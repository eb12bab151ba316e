(* A database is a catalog of named relations plus the registry of the
   enumeration types their schemas mention (Figure 1's TYPE section). *)

(* Concurrency control state (see the transaction section at the end of
   this file): a mutex, a condition and a small table.  A store carries
   one from the start; a facade (a transaction's view) makes its own
   only when a transaction is begun on it, so a pin pays for none. *)
type mvcc = {
  mu : Mutex.t;  (* guards catalog installs, pins, and this record *)
  cond : Condition.t;
  mutable next_txn : int;
  reserved : (string, int) Hashtbl.t;
      (* relation name -> txn id of a commit past its conflict check but
         not yet installed (it is fsyncing its WAL record); a second
         writer must not pass its own check in that window *)
  mutable checkpointing : bool;
      (* a checkpoint is draining reservations to pin its snapshot *)
  ckpt_mu : Mutex.t;  (* checkpoints run one at a time *)
  mutable wal : Wal.t option;
  mutable snapshot_path : string option;
  mutable durable : bool;
      (* WAL-attached: committed relation states are frozen, and all
         content mutation must arrive through write transactions *)
}

let fresh_mvcc () =
  {
    mu = Mutex.create ();
    cond = Condition.create ();
    next_txn = 1;
    reserved = Hashtbl.create 8;
    checkpointing = false;
    ckpt_mu = Mutex.create ();
    wal = None;
    snapshot_path = None;
    durable = false;
  }

module Names = Map.Make (String)

(* The catalog is one persistent value: a pin reads it in O(1), and a
   catalog change installs a new value.  Each relation state carries
   its own secondary indexes (the paper's permanent indexes, Section
   3.2: "The first step can be omitted, if permanent indexes exist"). *)
type catalog = {
  rels : Relation.t Names.t;
  enums : Value.enum_info Names.t;
}

type t = { mutable cat : catalog; cc : mvcc option Atomic.t }

let create () =
  {
    cat = { rels = Names.empty; enums = Names.empty };
    cc = Atomic.make (Some (fresh_mvcc ()));
  }

(* The database's concurrency state, made on first use; the
   compare-and-set keeps one when two domains race to make it. *)
let rec mvcc db =
  match Atomic.get db.cc with
  | Some m -> m
  | None ->
    ignore (Atomic.compare_and_set db.cc None (Some (fresh_mvcc ())) : bool);
    mvcc db

(* Catalog changes read-modify-write [cat] under the store lock, so
   they never lose a concurrent commit's install.  They wait out
   commits past their conflict check: such a commit installs a copy of
   the state it pinned, which a change made meanwhile would not be in. *)
let update db f =
  let m = mvcc db in
  Mutex.lock m.mu;
  while Hashtbl.length m.reserved > 0 do
    Condition.wait m.cond m.mu
  done;
  match f db.cat with
  | cat, v ->
    db.cat <- cat;
    Mutex.unlock m.mu;
    v
  | exception e ->
    Mutex.unlock m.mu;
    raise e

let add_relation db r =
  let n = Relation.name r in
  if String.equal n "" then
    Errors.schema_error "cannot catalog an anonymous relation";
  update db (fun cat ->
      if Names.mem n cat.rels then
        Errors.schema_error "relation %s already declared" n;
      ({ cat with rels = Names.add n r cat.rels }, ()))

let declare_relation db ~name schema =
  let r = Relation.create ~name schema in
  add_relation db r;
  r

let find_relation db name =
  match Names.find_opt name db.cat.rels with
  | Some r -> r
  | None -> raise (Errors.Unknown_relation name)

let find_relation_opt db name = Names.find_opt name db.cat.rels
let relation_names db = List.map fst (Names.bindings db.cat.rels)
let relations db = List.map snd (Names.bindings db.cat.rels)

let declare_enum db name labels =
  update db (fun cat ->
      if Names.mem name cat.enums then
        Errors.schema_error "enumeration %s already declared" name;
      let info = { Value.enum_name = name; labels } in
      ({ cat with enums = Names.add name info cat.enums }, info))

let find_enum db name =
  match Names.find_opt name db.cat.enums with
  | Some info -> info
  | None -> Errors.schema_error "unknown enumeration %s" name

let find_enum_opt db name = Names.find_opt name db.cat.enums
let enums db = List.map snd (Names.bindings db.cat.enums)

(* --- Secondary indexes (persistent access paths) -------------------- *)

let secondary_indexes db rel_name = Relation.indexes (find_relation db rel_name)

(* A declaration installs a new relation state carrying the index; the
   state pinned readers and open transactions hold is never changed,
   and a writer that pinned the old state conflicts at commit. *)
let declare_index db rel_name ~on =
  update db (fun cat ->
      let rel =
        match Names.find_opt rel_name cat.rels with
        | Some r -> r
        | None -> raise (Errors.Unknown_relation rel_name)
      in
      if
        List.exists
          (fun i -> List.equal String.equal (Secondary_index.on i) on)
          (Relation.indexes rel)
      then
        Errors.schema_error "relation %s: index on (%s) already declared"
          rel_name (String.concat ", " on);
      let idx = Relation.build_index rel ~on in
      let installed = Relation.with_index rel idx in
      (* The replaced state leaves the catalog: a write through a handle
         to it would vanish, so it raises {!Errors.Frozen} instead. *)
      Relation.freeze rel;
      ({ cat with rels = Names.add rel_name installed cat.rels }, idx))

let secondary_index_list db =
  Names.fold
    (fun name r acc ->
      List.map (fun i -> (name, Secondary_index.on i)) (Relation.indexes r) @ acc)
    db.cat.rels []
  |> List.sort compare

(* The declared single-component indexes over [attr], for access-path
   selection, in declaration order. *)
let secondary_on db rel_name attr =
  List.filter
    (fun i -> match Secondary_index.on i with [ a ] -> String.equal a attr | _ -> false)
    (secondary_indexes db rel_name)

(* Dereference: regain the selected variable from a reference value
   (paper Section 3.1, the postfix @ operator). *)
let deref db (r : Value.reference) =
  Relation.find_key_exn (find_relation db r.Value.target) r.Value.key

let deref_value db = function
  | Value.VRef r -> deref db r
  | v -> Errors.type_error "cannot dereference non-reference %s" (Value.to_string v)

(* Attach paged storage to every catalogued relation, sharing one
   buffer pool; returns the pool for statistics. *)
let attach_storage db ~pool_pages =
  let pool = Buffer_pool.create ~capacity:pool_pages in
  Names.iter (fun _ r -> Relation.attach_storage r ~pool) db.cat.rels;
  pool

let pool_stats db =
  (* The combined stats of the distinct pools attached to this
     database's relations (normally one shared pool). *)
  let pools =
    Names.fold
      (fun _ r acc ->
        match Relation.buffer_pool r with
        | Some p when not (List.memq p acc) -> p :: acc
        | Some _ | None -> acc)
      db.cat.rels []
  in
  match pools with
  | [] -> None
  | _ ->
    let acc =
      {
        Buffer_pool.fetches = 0;
        misses = 0;
        evictions = 0;
        invalidations = 0;
      }
    in
    List.iter
      (fun p ->
        let s = Buffer_pool.stats p in
        acc.Buffer_pool.fetches <- acc.Buffer_pool.fetches + s.Buffer_pool.fetches;
        acc.Buffer_pool.misses <- acc.Buffer_pool.misses + s.Buffer_pool.misses;
        acc.Buffer_pool.evictions <-
          acc.Buffer_pool.evictions + s.Buffer_pool.evictions;
        acc.Buffer_pool.invalidations <-
          acc.Buffer_pool.invalidations + s.Buffer_pool.invalidations)
      pools;
    Some acc

let pp ppf db =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut Relation.pp)
    (relations db)

(* ------------------------------------------------------------------ *)
(* Durable snapshots.

   A database is saved as one self-contained binary file:

     magic "PASCALRDB4"
     u16 #enums;      each: name, u16 #labels, labels
     u16 #relations;  each (sorted by name): name, schema (u16 arity;
                      each attribute: name, domain; u16 #key, key
                      names), i64 cardinality, tuples (u16 length +
                      schema-directed record, in Tuple.compare order)
     u16 #secondary indexes; each (sorted by (relation,
                      components)): relation name, u16 #components,
                      components, i64 #tuples, the index
                      pages (u16 length + schema-directed record, in
                      Tuple.compare order), u32 Adler-32 of this
                      index's section alone — a per-index page
                      checksum, verified on load; a damaged section is
                      discarded and the index rebuilt from its
                      (already checksum-verified) relation
     u32 Adler-32 of everything above

   Everything is emitted in a deterministic order, so saving the same
   logical database twice produces byte-identical files — the property
   the differential fault harness checks commits against.

   [save] is atomic: the snapshot is written to a temp file alongside
   the target, fsync'd, and renamed into place, so a crash (including
   the injected [db.save.crash]) at any point leaves the previous
   committed snapshot untouched. *)

let snapshot_magic = "PASCALRDB4"

let put_vtype buf (ty : Vtype.t) =
  match ty with
  | Vtype.TInt { lo; hi } ->
    Buffer.add_char buf 'J';
    Codec.put_i64 buf lo;
    Codec.put_i64 buf hi
  | Vtype.TStr { width = None } -> Buffer.add_char buf 'S'
  | Vtype.TStr { width = Some w } ->
    Buffer.add_char buf 'W';
    Codec.put_u16 buf w
  | Vtype.TBool -> Buffer.add_char buf 'B'
  | Vtype.TEnum info ->
    Buffer.add_char buf 'E';
    Codec.put_string buf info.Value.enum_name;
    Codec.put_u16 buf (Array.length info.Value.labels);
    Array.iter (Codec.put_string buf) info.Value.labels
  | Vtype.TRef target ->
    Buffer.add_char buf 'R';
    Codec.put_string buf target

let get_vtype c : Vtype.t =
  match Char.chr (Codec.get_u8 c) with
  | 'J' ->
    let lo = Codec.get_i64 c in
    let hi = Codec.get_i64 c in
    Vtype.TInt { lo; hi }
  | 'S' -> Vtype.TStr { width = None }
  | 'W' -> Vtype.TStr { width = Some (Codec.get_u16 c) }
  | 'B' -> Vtype.TBool
  | 'E' ->
    let name = Codec.get_string c in
    let n = Codec.get_u16 c in
    let labels = Array.init n (fun _ -> Codec.get_string c) in
    Vtype.TEnum { Value.enum_name = name; labels }
  | 'R' -> Vtype.TRef (Codec.get_string c)
  | tag -> Errors.corruption "snapshot: unknown domain tag %C" tag

(* The snapshot is streamed: every byte passes through one fixed chunk
   that is handed on ([emit]: to the file, or to a buffer for
   {!snapshot_bytes}) whenever it fills, and the Adler-32 of the body
   and of the open index section run over each stretch of the chunk as
   it is handed on.  Nothing grows with the database but the sort
   arrays: no doubling body buffer, no copy of it, no copy per
   section. *)
type sink = {
  chunk : Bytes.t;
  mutable len : int;  (* bytes of [chunk] in use *)
  emit : Bytes.t -> int -> unit;  (* hand on the first [n] bytes *)
  mutable body : int;  (* Adler-32 of the body before [body_from] *)
  mutable body_from : int;
  mutable section : int;  (* the open section's, before [section_from] *)
  mutable section_from : int;  (* -1: no section open *)
  scratch : Buffer.t;  (* one record, or one header, at a time *)
}

let sink emit =
  {
    chunk = Bytes.create 32768;
    len = 0;
    emit;
    body = 1;
    body_from = 0;
    section = 1;
    section_from = -1;
    scratch = Buffer.create 256;
  }

(* Bring the running sums up to the end of the chunk's contents. *)
let fold_sums s =
  s.body <-
    Codec.adler32_update s.body s.chunk ~pos:s.body_from
      ~len:(s.len - s.body_from);
  s.body_from <- s.len;
  if s.section_from >= 0 then begin
    s.section <-
      Codec.adler32_update s.section s.chunk ~pos:s.section_from
        ~len:(s.len - s.section_from);
    s.section_from <- s.len
  end

let flush_chunk s =
  fold_sums s;
  s.emit s.chunk s.len;
  s.len <- 0;
  s.body_from <- 0;
  if s.section_from >= 0 then s.section_from <- 0

let out_byte s n =
  if s.len = Bytes.length s.chunk then flush_chunk s;
  Bytes.unsafe_set s.chunk s.len (Char.unsafe_chr (n land 0xFF));
  s.len <- s.len + 1

let out_u16 s n =
  Codec.check_u16 n;
  out_byte s n;
  out_byte s (n lsr 8)

let out_u32 s n =
  for i = 0 to 3 do
    out_byte s (n lsr (8 * i))
  done

(* Append the scratch buffer's contents from [off] on, and clear it.
   Top level, not a local loop: it runs once per record. *)
let rec out_scratch_from s off =
  let n = Buffer.length s.scratch in
  if off < n then begin
    if s.len = Bytes.length s.chunk then flush_chunk s;
    let k = min (n - off) (Bytes.length s.chunk - s.len) in
    Buffer.blit s.scratch off s.chunk s.len k;
    s.len <- s.len + k;
    out_scratch_from s (off + k)
  end
  else Buffer.clear s.scratch

let out_scratch s = out_scratch_from s 0

(* Length-prefixed records of [tuples], each encoded in the scratch. *)
let out_records s schema tuples =
  Array.iter
    (fun t ->
      Codec.put_tuple s.scratch schema t;
      out_u16 s (Buffer.length s.scratch);
      out_scratch s)
    tuples

let begin_section s =
  fold_sums s;
  s.section <- 1;
  s.section_from <- s.len

(* Close the section and write its checksum, which is not part of it. *)
let end_section s =
  fold_sums s;
  s.section_from <- -1;
  out_u32 s s.section

(* The secondary indexes in snapshot order: by (relation, components). *)
let snapshot_indexes rels =
  List.concat_map (fun r -> List.map (fun i -> (r, i)) (Relation.indexes r)) rels
  |> List.sort (fun (ra, a) (rb, b) ->
         compare
           (Relation.name ra, Secondary_index.on a)
           (Relation.name rb, Secondary_index.on b))

(* Crash point at the index I/O boundary: serialization aborts before
   any byte of the snapshot is written, so the committed file is
   untouched. *)
let index_save_crash secondaries =
  if secondaries <> [] && Failpoint.should_fire "index.save.crash" then begin
    Obs.Metrics.incr "index.save_crashes";
    Errors.io_error "index.save.crash: crash while serializing indexes"
  end

(* The whole snapshot through [s]: body, then its checksum, flushed. *)
let write_snapshot s db rels secondaries =
  let b = s.scratch in
  Buffer.add_string b snapshot_magic;
  let enum_list = enums db in
  Codec.put_u16 b (List.length enum_list);
  List.iter
    (fun info ->
      Codec.put_string b info.Value.enum_name;
      Codec.put_u16 b (Array.length info.Value.labels);
      Array.iter (Codec.put_string b) info.Value.labels)
    enum_list;
  Codec.put_u16 b (List.length rels);
  out_scratch s;
  List.iter
    (fun r ->
      let schema = Relation.schema r in
      Codec.put_string b (Relation.name r);
      Codec.put_u16 b (Schema.arity schema);
      List.iteri
        (fun i name ->
          Codec.put_string b name;
          put_vtype b (Schema.type_at schema i))
        (Schema.names schema);
      let key = Schema.key_names schema in
      Codec.put_u16 b (List.length key);
      List.iter (Codec.put_string b) key;
      Codec.put_i64 b (Relation.cardinality r);
      out_scratch s;
      out_records s schema (Relation.sorted r))
    rels;
  out_u16 s (List.length secondaries);
  List.iter
    (fun (rel, idx) ->
      begin_section s;
      Codec.put_string b (Relation.name rel);
      let on = Secondary_index.on idx in
      Codec.put_u16 b (List.length on);
      List.iter (Codec.put_string b) on;
      let tuples = Secondary_index.sorted idx in
      Codec.put_i64 b (Array.length tuples);
      out_scratch s;
      out_records s (Relation.schema rel) tuples;
      end_section s)
    secondaries;
  fold_sums s;
  out_u32 s s.body;
  s.emit s.chunk s.len;
  s.len <- 0

(* Serialize into memory, without the index crash point. *)
let snapshot_buffer db rels secondaries =
  let out = Buffer.create 4096 in
  write_snapshot (sink (fun chunk n -> Buffer.add_subbytes out chunk 0 n)) db rels
    secondaries;
  Buffer.to_bytes out

let snapshot_bytes db =
  let rels = relations db in
  let secondaries = snapshot_indexes rels in
  index_save_crash secondaries;
  snapshot_buffer db rels secondaries

let write_file_fsync path write =
  let oc = open_out_bin path in
  (try
     write oc;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc)
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

let save db ~path =
  let rels = relations db in
  let secondaries = snapshot_indexes rels in
  index_save_crash secondaries;
  let tmp = path ^ ".tmp" in
  (* Crash point 1: mid-write of the temp file — half the snapshot
     lands, the committed file is never touched. *)
  if Failpoint.should_fire "db.save.crash" then begin
    let data = snapshot_buffer db rels secondaries in
    write_file_fsync tmp (fun oc -> output oc data 0 (Bytes.length data / 2));
    Obs.Metrics.incr "db.save_crashes";
    Errors.io_error "db.save.crash: crash while writing %s" tmp
  end;
  write_file_fsync tmp (fun oc ->
      write_snapshot (sink (fun chunk n -> output oc chunk 0 n)) db rels
        secondaries);
  (* Crash point 2: temp fully written and durable, but never renamed
     into place; the committed file still wins. *)
  if Failpoint.should_fire "db.save.crash" then begin
    Obs.Metrics.incr "db.save_crashes";
    Errors.io_error "db.save.crash: crash before renaming %s" tmp
  end;
  Unix.rename tmp path;
  Obs.Metrics.incr "db.saves"

let load ~path =
  let data =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let b = Bytes.create n in
    really_input ic b 0 n;
    close_in ic;
    b
  in
  let n = Bytes.length data in
  let magic_len = String.length snapshot_magic in
  if n < magic_len + 4 then
    Errors.corruption "snapshot %s: too short (%d bytes)" path n;
  if not (String.equal (Bytes.sub_string data 0 magic_len) snapshot_magic) then
    Errors.corruption "snapshot %s: bad magic" path;
  let stored =
    let b = ref 0 in
    for i = 3 downto 0 do
      b := (!b lsl 8) lor Char.code (Bytes.get data (n - 4 + i))
    done;
    !b
  in
  let computed = Codec.adler32 data ~pos:0 ~len:(n - 4) in
  if stored <> computed then
    Errors.corruption "snapshot %s: checksum mismatch (stored %x, computed %x)"
      path stored computed;
  let c = Codec.cursor (Bytes.sub data 0 (n - 4)) in
  c.Codec.pos <- magic_len;
  let db = create () in
  let n_enums = Codec.get_u16 c in
  for _ = 1 to n_enums do
    let name = Codec.get_string c in
    let k = Codec.get_u16 c in
    let labels = Array.init k (fun _ -> Codec.get_string c) in
    ignore (declare_enum db name labels)
  done;
  let n_rels = Codec.get_u16 c in
  for _ = 1 to n_rels do
    let name = Codec.get_string c in
    let arity = Codec.get_u16 c in
    let attrs =
      List.init arity (fun _ ->
          let aname = Codec.get_string c in
          let ty =
            match get_vtype c with
            | Vtype.TEnum info -> (
              (* Share the registered enumeration's info so values
                 compare against the catalogued labels. *)
              match find_enum_opt db info.Value.enum_name with
              | Some shared -> Vtype.TEnum shared
              | None -> Vtype.TEnum info)
            | ty -> ty
          in
          Schema.attr aname ty)
    in
    let n_key = Codec.get_u16 c in
    let key = List.init n_key (fun _ -> Codec.get_string c) in
    let schema = Schema.make attrs ~key in
    let rel = declare_relation db ~name schema in
    let card = Codec.get_i64 c in
    for _ = 1 to card do
      let len = Codec.get_u16 c in
      if c.Codec.pos + len > Bytes.length c.Codec.bytes then
        Errors.corruption "snapshot %s: truncated tuple in %s" path name;
      let record = Bytes.sub c.Codec.bytes c.Codec.pos len in
      c.Codec.pos <- c.Codec.pos + len;
      Relation.insert rel (Codec.decode_tuple schema record)
    done
  done;
  let n_sec = Codec.get_u16 c in
  for _ = 1 to n_sec do
    let start = c.Codec.pos in
    let rel_name = Codec.get_string c in
    let n_on = Codec.get_u16 c in
    let on = List.init n_on (fun _ -> Codec.get_string c) in
    let rel = find_relation db rel_name in
    let schema = Relation.schema rel in
    let card = Codec.get_i64 c in
    let tuples = ref [] in
    for _ = 1 to card do
      let len = Codec.get_u16 c in
      if c.Codec.pos + len > Bytes.length c.Codec.bytes then
        Errors.corruption "snapshot %s: truncated index page for %s" path
          rel_name;
      let record = Bytes.sub c.Codec.bytes c.Codec.pos len in
      c.Codec.pos <- c.Codec.pos + len;
      tuples := Codec.decode_tuple schema record :: !tuples
    done;
    let computed =
      Codec.adler32 c.Codec.bytes ~pos:start ~len:(c.Codec.pos - start)
    in
    let stored =
      let b = ref 0 in
      for _ = 1 to 4 do
        b := (!b lsr 8) lor (Codec.get_u8 c lsl 24)
      done;
      !b
    in
    (* A damaged index page never fails the load: the relation content
       above already passed the snapshot checksum, so the index is
       rebuilt from it and the recovery counted. *)
    let damaged =
      stored <> computed || Failpoint.should_fire "index.load.corrupt"
    in
    let idx =
      if damaged then begin
        Obs.Metrics.incr "index.recovery_rebuilds";
        Relation.build_index rel ~on
      end
      else Secondary_index.of_tuples ~source:rel_name schema ~on (List.rev !tuples)
    in
    db.cat <-
      { db.cat with rels = Names.add rel_name (Relation.with_index rel idx) db.cat.rels }
  done;
  if c.Codec.pos <> Bytes.length c.Codec.bytes then
    Errors.corruption "snapshot %s: %d trailing bytes" path
      (Bytes.length c.Codec.bytes - c.Codec.pos);
  db

(* ------------------------------------------------------------------ *)
(* Snapshot-isolated transactions.

   MVCC at relation granularity.  A transaction pins a *snapshot* —
   the store's catalog value, read under the store lock in O(1) — so it
   sees every relation at one commit point and none of the installs
   that happen while it runs.  A write transaction never touches a
   committed state: its first write to a relation takes a private
   [Relation.copy], an O(1) record copy sharing the committed state's
   persistent tuple trie and index maps (and continuing its version
   lineage).  A write copies only the trie and
   index nodes on its key's path, so it costs O(log n) however large
   the relation, and commit *installs* the copies in a new catalog
   value.

   Conflicts are first-committer-wins, by identity: commit re-checks,
   under the store lock, that the store's current state of every
   written relation is physically the state the snapshot pinned (every
   install and every index declaration puts a new state there).
   Because durability (the WAL fsync) runs outside the lock so that
   concurrent commits can share fsyncs, a passed check is protected by
   a *reservation* on the written relations.  A competing writer that
   finds a reservation waits for that commit's outcome instead of
   sneaking through the fsync window: it loses once the reserving
   commit installs, and goes ahead if that commit fails.  It does not
   abort early, so a retry loop cannot spin through its attempts within
   one fsync.

   Durability: [attach_wal] snapshots the database with [save], opens a
   WAL beside it and freezes the committed states; from then on commit
   appends the transaction's operations to the WAL (group commit)
   before installing.  [open_durable] is crash recovery — load the
   snapshot, replay the WAL's intact records, checkpoint.  A checkpoint
   holds the store lock only to pin a snapshot and the WAL position it
   covers; it saves the pinned state and cuts the log to the records
   appended since with no lock held, so readers and writers go on.
   Replay is idempotent (inserts are upserts) because a crash between
   the checkpoint's snapshot save and its WAL cut replays a log whose
   prefix is already in the snapshot. *)

(* A facade database at the catalog [cat]: it shares the committed
   states, which are never mutated in place; its own concurrency state
   is made only if a transaction is begun on it. *)
let facade cat = { cat; cc = Atomic.make None }

module Txn = struct
  type kind = Read | Write
  type state = Open | Committed | Aborted

  type nonrec t = {
    store : t;
    pinned : catalog;  (* the store's catalog at pin time *)
    view_db : t;
    kind : kind;
    id : int;
    mutable touched : (string * Relation.t) list;  (* private copies *)
    mutable ops : Wal.op list;  (* reversed write set *)
    mutable state : state;
  }

  (* Pin a snapshot under the store lock, so the view is one commit
     point even while writers install. *)
  let begin_txn kind store =
    let m = mvcc store in
    Mutex.lock m.mu;
    let pinned = store.cat in
    let id = m.next_txn in
    m.next_txn <- id + 1;
    Mutex.unlock m.mu;
    Obs.Metrics.incr
      (match kind with
      | Read -> "txn.begin_read"
      | Write -> "txn.begin_write");
    {
      store;
      pinned;
      view_db = facade pinned;
      kind;
      id;
      touched = [];
      ops = [];
      state = Open;
    }

  let view txn = txn.view_db
  let kind txn = txn.kind
  let state txn = txn.state

  let writable txn op =
    (match txn.state with
    | Open -> ()
    | Committed | Aborted -> invalid_arg ("Txn." ^ op ^ ": transaction is closed"));
    match txn.kind with
    | Write -> ()
    | Read -> invalid_arg ("Txn." ^ op ^ ": read-only transaction")

  (* First write to a relation: swap a private copy into the view so the
     transaction reads its own writes through the normal executors.
     O(1) — the copy is a record sharing the committed state's
     persistent trie and index maps; its writes maintain its own
     indexes while the committed ones stay as pinned readers see them. *)
  let touch txn name =
    match List.assoc_opt name txn.touched with
    | Some c -> c
    | None ->
      let c = Relation.copy (find_relation txn.view_db name) in
      txn.touched <- (name, c) :: txn.touched;
      let v = txn.view_db in
      v.cat <- { v.cat with rels = Names.add name c v.cat.rels };
      c

  let insert txn name tup =
    writable txn "insert";
    let c = touch txn name in
    Relation.insert c tup;
    txn.ops <- Wal.Insert (name, Codec.encode_tuple (Relation.schema c) tup) :: txn.ops

  let delete_key txn name key =
    writable txn "delete_key";
    let c = touch txn name in
    Relation.delete_key c key;
    txn.ops <- Wal.Delete (name, key) :: txn.ops

  let clear txn name =
    writable txn "clear";
    let c = touch txn name in
    Relation.clear c;
    txn.ops <- Wal.Clear name :: txn.ops

  (* First-committer-wins, called with the store lock held: a written
     relation whose committed state is no longer the pinned one loses
     ([`Lost]).  One reserved by a commit in its fsync window has no
     outcome yet ([`Busy]): the caller waits for it to install (then we
     lose) or to fail (then we may pass). *)
  let conflicting m txn =
    let moved (name, _) =
      Names.find name txn.store.cat.rels != Names.find name txn.pinned.rels
    in
    let busy (name, _) =
      match Hashtbl.find_opt m.reserved name with
      | Some id -> id <> txn.id
      | None -> false
    in
    match List.find_opt moved txn.touched with
    | Some (name, _) -> `Lost name
    | None -> if List.exists busy txn.touched then `Busy else `Clear

  let unreserve m txn =
    List.iter (fun (name, _) -> Hashtbl.remove m.reserved name) txn.touched;
    Condition.broadcast m.cond

  let abort txn =
    match txn.state with
    | Open ->
      txn.state <- Aborted;
      if txn.kind = Write then Obs.Metrics.incr "txn.aborts"
    | Committed | Aborted -> ()

  let commit txn =
    (match txn.state with
    | Open -> ()
    | Committed -> invalid_arg "Txn.commit: already committed"
    | Aborted -> invalid_arg "Txn.commit: already aborted");
    if txn.kind = Read || txn.touched = [] then txn.state <- Committed
    else begin
      let m = mvcc txn.store in
      Mutex.lock m.mu;
      let rec await_turn () =
        if m.checkpointing then begin
          Condition.wait m.cond m.mu;
          await_turn ()
        end
        else begin
          if m.durable && m.wal = None then begin
            Mutex.unlock m.mu;
            abort txn;
            Errors.io_error "Txn.commit: database is closed"
          end;
          match conflicting m txn with
          | `Lost name ->
            Mutex.unlock m.mu;
            txn.state <- Aborted;
            Obs.Metrics.incr "txn.conflicts";
            Obs.Metrics.incr "txn.aborts";
            Errors.txn_conflict
              "relation %s was committed by a concurrent transaction" name
          | `Busy ->
            Condition.wait m.cond m.mu;
            await_turn ()
          | `Clear -> ()
        end
      in
      await_turn ();
      List.iter (fun (name, _) -> Hashtbl.replace m.reserved name txn.id) txn.touched;
      let wal = m.wal in
      Mutex.unlock m.mu;
      (* Durability outside the store lock: concurrent commits batch
         into shared fsyncs (group commit). *)
      (match wal with
      | Some w -> (
        try Wal.commit w (List.rev txn.ops)
        with e ->
          Mutex.lock m.mu;
          unreserve m txn;
          Mutex.unlock m.mu;
          txn.state <- Aborted;
          Obs.Metrics.incr "txn.aborts";
          raise e)
      | None -> ());
      let t0 = Unix.gettimeofday () in
      Mutex.lock m.mu;
      (* The copies carry the indexes their writes maintained, so the
         install is one catalog value; pinned readers keep the old one. *)
      let store = txn.store in
      store.cat <-
        {
          store.cat with
          rels =
            List.fold_left
              (fun rels (name, c) ->
                if m.durable then Relation.freeze c;
                (* The retired state: pinned readers still read it, and a
                   write through a stale handle raises rather than
                   vanishes. *)
                Relation.freeze (Names.find name rels);
                Names.add name c rels)
              store.cat.rels txn.touched;
        };
      unreserve m txn;
      Mutex.unlock m.mu;
      Obs.Metrics.observe "txn.install_ms" ((Unix.gettimeofday () -. t0) *. 1000.);
      txn.state <- Committed;
      Obs.Metrics.incr "txn.commits"
    end
end

let begin_read db = Txn.begin_txn Txn.Read db
let begin_write db = Txn.begin_txn Txn.Write db

let with_txn begin_kind db f =
  let txn = begin_kind db in
  match f txn with
  | v ->
    if Txn.state txn = Txn.Open then Txn.commit txn;
    v
  | exception e ->
    Txn.abort txn;
    raise e

let with_read db f = with_txn begin_read db f
let with_write db f = with_txn begin_write db f

(* ------------------------------------------------------------------ *)
(* Durability: WAL attach, recovery, checkpoint. *)

let wal_path path = path ^ ".wal"
(* Read without making a facade's concurrency state: a view has none
   until a transaction is begun on it, and then no WAL. *)
let wal_attached db =
  match Atomic.get db.cc with Some m -> m.wal <> None | None -> false

let durable db =
  match Atomic.get db.cc with Some m -> m.durable | None -> false

(* Replay application is an upsert: a crash between a checkpoint's
   snapshot save and its WAL truncation leaves a log whose prefix is
   already inside the snapshot, so replaying the whole log must
   converge rather than trip the key constraint. *)
let apply_op db = function
  | Wal.Insert (name, bytes) ->
    let rel = find_relation db name in
    let schema = Relation.schema rel in
    let tup = Codec.decode_tuple schema bytes in
    let key = Tuple.key_of schema tup in
    (match Relation.find_key rel key with
    | Some existing when Tuple.equal existing tup -> ()
    | Some _ ->
      Relation.delete_key rel key;
      Relation.insert rel tup
    | None -> Relation.insert rel tup)
  | Wal.Delete (name, key) -> Relation.delete_key (find_relation db name) key
  | Wal.Clear name -> Relation.clear (find_relation db name)

let make_durable db ~path w =
  let m = mvcc db in
  Mutex.lock m.mu;
  m.wal <- Some w;
  m.snapshot_path <- Some path;
  m.durable <- true;
  Mutex.unlock m.mu;
  Names.iter (fun _ r -> Relation.freeze r) db.cat.rels

let attach_wal db ~path =
  if wal_attached db then
    Errors.io_error "attach_wal: %s already has a wal attached" path;
  save db ~path;
  make_durable db ~path (Wal.create (wal_path path))

let open_durable ~path =
  let db = load ~path in
  let replayed =
    Wal.replay (wal_path path) ~apply:(fun ops -> List.iter (apply_op db) ops)
  in
  if replayed > 0 then
    (* Replay maintained each relation's indexes with its tuples; verify
       them, and rebuild those of a relation the replay nevertheless
       left inconsistent. *)
    db.cat <-
      {
        db.cat with
        rels =
          Names.map
            (fun rel ->
              let idxs = Relation.indexes rel in
              if List.for_all (Relation.index_consistent rel) idxs then rel
              else begin
                List.iter
                  (fun _ -> Obs.Metrics.incr "index.recovery_rebuilds")
                  idxs;
                Relation.rebuild_indexes rel
              end)
            db.cat.rels;
      };
  (* Checkpoint the recovered state before going live: the snapshot
     absorbs the replayed transactions and the log restarts empty. *)
  save db ~path;
  make_durable db ~path (Wal.create (wal_path path));
  Obs.Metrics.incr "db.recoveries";
  db

(* Crash point of the checkpoint: crash 1 before the snapshot save, 2
   between the save and the WAL cut. *)
let checkpoint_crash what =
  if Failpoint.should_fire "wal.checkpoint.crash" then begin
    Obs.Metrics.incr "wal.checkpoint_crashes";
    Errors.io_error "wal.checkpoint.crash: %s" what
  end

let checkpoint db =
  let m = mvcc db in
  match m.wal, m.snapshot_path with
  | Some w, Some path ->
    Mutex.lock m.ckpt_mu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock m.ckpt_mu)
      (fun () ->
        Mutex.lock m.mu;
        let t0 = Unix.gettimeofday () in
        (* Block new reservations and wait out in-flight commits: a
           commit past its conflict check but not yet installed must not
           have its WAL record below the mark while the pinned snapshot
           misses it. *)
        m.checkpointing <- true;
        while Hashtbl.length m.reserved > 0 do
          Condition.wait m.cond m.mu
        done;
        let view = facade db.cat and upto = Wal.mark w in
        m.checkpointing <- false;
        Condition.broadcast m.cond;
        Mutex.unlock m.mu;
        Obs.Metrics.observe "db.checkpoint_pin_ms"
          ((Unix.gettimeofday () -. t0) *. 1000.);
        (* The pinned states are frozen, so the save reads them with no
           lock held while commits append past the mark. *)
        checkpoint_crash ("before snapshot " ^ path);
        save view ~path;
        (* Crash point 2: new snapshot durable, WAL not yet cut —
           recovery replays a log whose prefix the snapshot already
           holds, which upsert replay absorbs. *)
        checkpoint_crash ("before truncating " ^ Wal.path w);
        Wal.truncate_upto w upto;
        Obs.Metrics.incr "db.checkpoints")
  | _ -> Errors.io_error "checkpoint: no wal attached"

let close db =
  let m = mvcc db in
  match m.wal with
  | None -> ()
  | Some w ->
    checkpoint db;
    Wal.close w;
    m.wal <- None
