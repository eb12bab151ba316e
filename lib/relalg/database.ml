(* A database is a catalog of named relations plus the registry of the
   enumeration types their schemas mention (Figure 1's TYPE section). *)

(* Concurrency control state (see the transaction section at the end of
   this file).  Every database carries one; it costs a mutex and two
   small tables and stays inert until transactions are used. *)
type mvcc = {
  mu : Mutex.t;  (* guards rels/sec_indexes installs, pins, and this record *)
  cond : Condition.t;
  mutable commit_seq : int;  (* global commit counter *)
  mutable next_txn : int;
  last_commit : (string, int) Hashtbl.t;
      (* relation name -> commit_seq of the last installed version;
         absent = unchanged since the catalog was built (seq 0) *)
  reserved : (string, int) Hashtbl.t;
      (* relation name -> txn id of a commit past its conflict check but
         not yet installed (it is fsyncing its WAL record); a second
         writer must not pass its own check in that window *)
  mutable checkpointing : bool;
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
    commit_seq = 0;
    next_txn = 1;
    last_commit = Hashtbl.create 16;
    reserved = Hashtbl.create 8;
    checkpointing = false;
    wal = None;
    snapshot_path = None;
    durable = false;
  }

type t = {
  rels : (string, Relation.t) Hashtbl.t;
  enums : (string, Value.enum_info) Hashtbl.t;
  sec_indexes : (string, Secondary_index.t list) Hashtbl.t;
      (* secondary indexes per relation name: persistent access paths
         and the paper's permanent indexes (Section 3.2: "The first step
         can be omitted, if permanent indexes exist"), maintained
         incrementally through Relation observers and copied on first
         write by MVCC transactions *)
  mutable catalog_version : int;
      (* bumped when the set of catalogued relations changes, so the
         stats epoch moves even before the new relation is populated *)
  mvcc : mvcc;
}

let create () =
  {
    rels = Hashtbl.create 16;
    enums = Hashtbl.create 16;
    sec_indexes = Hashtbl.create 8;
    catalog_version = 0;
    mvcc = fresh_mvcc ();
  }

let add_relation db r =
  let n = Relation.name r in
  if String.equal n "" then
    Errors.schema_error "cannot catalog an anonymous relation"
  else if Hashtbl.mem db.rels n then
    Errors.schema_error "relation %s already declared" n
  else begin
    Hashtbl.replace db.rels n r;
    db.catalog_version <- db.catalog_version + 1
  end

(* The stats epoch: a number that changes whenever the catalogued data
   does.  Cached plans embed the epoch they were planned under; a bump
   (insertion, deletion, clear, snapshot load — loads insert tuple by
   tuple) invalidates them, so cardinality-sensitive choices (cost-
   ordered joins, empty-range adaptation) are recomputed against the
   shifted data.  Summing per-relation versions keeps the epoch honest
   even for mutations performed directly on a {!Relation.t} handle. *)
let stats_epoch db =
  Hashtbl.fold
    (fun _ r acc -> acc + Relation.version r)
    db.rels db.catalog_version

let declare_relation db ~name schema =
  let r = Relation.create ~name schema in
  add_relation db r;
  r

let find_relation db name =
  match Hashtbl.find_opt db.rels name with
  | Some r -> r
  | None -> raise (Errors.Unknown_relation name)

let find_relation_opt db name = Hashtbl.find_opt db.rels name
let mem_relation db name = Hashtbl.mem db.rels name

let relation_names db =
  List.sort String.compare (Hashtbl.fold (fun n _ acc -> n :: acc) db.rels [])

let relations db = List.map (find_relation db) (relation_names db)

let declare_enum db name labels =
  if Hashtbl.mem db.enums name then
    Errors.schema_error "enumeration %s already declared" name
  else begin
    let info = { Value.enum_name = name; labels } in
    Hashtbl.replace db.enums name info;
    info
  end

let find_enum db name =
  match Hashtbl.find_opt db.enums name with
  | Some info -> info
  | None -> Errors.schema_error "unknown enumeration %s" name

let find_enum_opt db name = Hashtbl.find_opt db.enums name

let enums db =
  Hashtbl.fold (fun _ info acc -> info :: acc) db.enums []
  |> List.sort (fun a b ->
         String.compare a.Value.enum_name b.Value.enum_name)

(* --- Secondary indexes (persistent access paths) -------------------- *)

(* Maintenance hook: every effective mutation of [rel] updates [idx]
   incrementally.  Attached to the catalogued handle at declaration and
   to each transaction's private copy at copy-on-write time. *)
let hook_index rel idx =
  Relation.add_observer rel (function
    | Relation.Inserted t -> Secondary_index.on_insert idx t
    | Relation.Deleted t -> Secondary_index.on_delete idx t
    | Relation.Cleared -> Secondary_index.on_clear idx)

let secondary_indexes db rel_name =
  Option.value (Hashtbl.find_opt db.sec_indexes rel_name) ~default:[]

let install_secondary db idx =
  let rel_name = Secondary_index.source idx in
  Hashtbl.replace db.sec_indexes rel_name (secondary_indexes db rel_name @ [ idx ])

let declare_index ?(kind = Secondary_index.Hash) db rel_name ~on =
  let rel = find_relation db rel_name in
  if
    List.exists
      (fun i -> List.equal String.equal (Secondary_index.on i) on)
      (secondary_indexes db rel_name)
  then
    Errors.schema_error "relation %s: index on (%s) already declared" rel_name
      (String.concat ", " on);
  let idx = Secondary_index.build ~kind rel ~on in
  hook_index rel idx;
  install_secondary db idx;
  idx

let secondary_index_list db =
  Hashtbl.fold
    (fun rel idxs acc ->
      List.map
        (fun i -> (rel, Secondary_index.on i, Secondary_index.kind i))
        idxs
      @ acc)
    db.sec_indexes []
  |> List.sort compare

(* The declared single-component indexes over [attr], for access-path
   selection.  [Sorted] first, so a range-capable index wins ties. *)
let secondary_on db rel_name attr =
  List.filter
    (fun i -> match Secondary_index.on i with [ a ] -> String.equal a attr | _ -> false)
    (secondary_indexes db rel_name)
  |> List.stable_sort (fun a b ->
         compare (Secondary_index.kind b) (Secondary_index.kind a))

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
  Hashtbl.iter (fun _ r -> Relation.attach_storage r ~pool) db.rels;
  pool

(* One call resets *all* measurement state — relation scan/probe
   counters, secondary-index probe counters, and the stats of every
   attached buffer pool — so benchmark iterations and [analyze] runs
   never leak counts into each other.  Pools may be shared between
   relations; resetting a shared pool more than once is harmless. *)
let reset_counters db =
  Hashtbl.iter
    (fun _ r ->
      Relation.reset_counters r;
      match Relation.buffer_pool r with
      | Some pool -> Buffer_pool.reset_stats pool
      | None -> ())
    db.rels;
  Hashtbl.iter
    (fun _ idxs -> List.iter Secondary_index.reset_counters idxs)
    db.sec_indexes

let total_probes db =
  Hashtbl.fold (fun _ r acc -> acc + Relation.probe_count r) db.rels 0

let pool_stats db =
  (* The combined stats of the distinct pools attached to this
     database's relations (normally one shared pool). *)
  let pools =
    Hashtbl.fold
      (fun _ r acc ->
        match Relation.buffer_pool r with
        | Some p when not (List.memq p acc) -> p :: acc
        | Some _ | None -> acc)
      db.rels []
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

let total_scans db =
  Hashtbl.fold (fun _ r acc -> acc + Relation.scan_count r) db.rels 0

let pp ppf db =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut Relation.pp)
    (relations db)

(* ------------------------------------------------------------------ *)
(* Durable snapshots.

   A database is saved as one self-contained binary file:

     magic "PASCALRDB3"
     u16 #enums;      each: name, u16 #labels, labels
     u16 #relations;  each (sorted by name): name, schema (u16 arity;
                      each attribute: name, domain; u16 #key, key
                      names), i64 cardinality, tuples (u16 length +
                      schema-directed record, in Tuple.compare order)
     u16 #secondary indexes; each (sorted by (relation, components,
                      kind)): relation name, kind tag 'H'|'S', u16
                      #components, components, i64 #tuples, the index
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

let snapshot_magic = "PASCALRDB3"

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

let snapshot_bytes db =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf snapshot_magic;
  let enum_list = enums db in
  Codec.put_u16 buf (List.length enum_list);
  List.iter
    (fun info ->
      Codec.put_string buf info.Value.enum_name;
      Codec.put_u16 buf (Array.length info.Value.labels);
      Array.iter (Codec.put_string buf) info.Value.labels)
    enum_list;
  let rels = relations db in
  Codec.put_u16 buf (List.length rels);
  List.iter
    (fun r ->
      let schema = Relation.schema r in
      Codec.put_string buf (Relation.name r);
      Codec.put_u16 buf (Schema.arity schema);
      List.iteri
        (fun i name ->
          Codec.put_string buf name;
          put_vtype buf (Schema.type_at schema i))
        (Schema.names schema);
      let key = Schema.key_names schema in
      Codec.put_u16 buf (List.length key);
      List.iter (Codec.put_string buf) key;
      Codec.put_i64 buf (Relation.cardinality r);
      List.iter
        (fun t ->
          let record = Codec.encode_tuple schema t in
          Codec.put_u16 buf (Bytes.length record);
          Buffer.add_bytes buf record)
        (Relation.to_list r))
    rels;
  let secondaries =
    List.concat_map
      (fun r ->
        List.map (fun i -> (Relation.name r, i)) (secondary_indexes db (Relation.name r)))
      rels
    |> List.sort (fun (ra, a) (rb, b) ->
           compare
             (ra, Secondary_index.on a, Secondary_index.kind a)
             (rb, Secondary_index.on b, Secondary_index.kind b))
  in
  (* Crash point at the index I/O boundary: serialization aborts before
     any byte of the snapshot reaches disk, so the committed file is
     untouched. *)
  if secondaries <> [] && Failpoint.should_fire "index.save.crash" then begin
    Obs.Metrics.incr "index.save_crashes";
    Errors.io_error "index.save.crash: crash while serializing indexes"
  end;
  Codec.put_u16 buf (List.length secondaries);
  List.iter
    (fun (rel_name, idx) ->
      let schema = Relation.schema (find_relation db rel_name) in
      let section = Buffer.create 256 in
      Codec.put_string section rel_name;
      Buffer.add_char section
        (match Secondary_index.kind idx with
        | Secondary_index.Hash -> 'H'
        | Secondary_index.Sorted -> 'S');
      let on = Secondary_index.on idx in
      Codec.put_u16 section (List.length on);
      List.iter (Codec.put_string section) on;
      let tuples = Secondary_index.to_list idx in
      Codec.put_i64 section (List.length tuples);
      List.iter
        (fun t ->
          let record = Codec.encode_tuple schema t in
          Codec.put_u16 section (Bytes.length record);
          Buffer.add_bytes section record)
        tuples;
      let page = Buffer.to_bytes section in
      Buffer.add_bytes buf page;
      let sum = Codec.adler32 page ~pos:0 ~len:(Bytes.length page) in
      for i = 0 to 3 do
        Buffer.add_char buf (Char.chr ((sum lsr (8 * i)) land 0xFF))
      done)
    secondaries;
  let body = Buffer.to_bytes buf in
  let sum = Codec.adler32 body ~pos:0 ~len:(Bytes.length body) in
  let tail = Buffer.create 4 in
  for i = 0 to 3 do
    Buffer.add_char tail (Char.chr ((sum lsr (8 * i)) land 0xFF))
  done;
  Bytes.cat body (Buffer.to_bytes tail)

let write_file_fsync path data len =
  let oc = open_out_bin path in
  (try
     output_bytes oc (Bytes.sub data 0 len);
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc)
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

let save db ~path =
  let data = snapshot_bytes db in
  let tmp = path ^ ".tmp" in
  (* Crash point 1: mid-write of the temp file — half the snapshot
     lands, the committed file is never touched. *)
  if Failpoint.should_fire "db.save.crash" then begin
    write_file_fsync tmp data (Bytes.length data / 2);
    Obs.Metrics.incr "db.save_crashes";
    Errors.io_error "db.save.crash: crash while writing %s" tmp
  end;
  write_file_fsync tmp data (Bytes.length data);
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
    let kind =
      match Char.chr (Codec.get_u8 c) with
      | 'H' -> Secondary_index.Hash
      | 'S' -> Secondary_index.Sorted
      | tag -> Errors.corruption "snapshot %s: unknown index kind %C" path tag
    in
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
        Secondary_index.build ~kind rel ~on
      end
      else Secondary_index.of_tuples ~kind rel ~on (List.rev !tuples)
    in
    hook_index rel idx;
    install_secondary db idx
  done;
  if c.Codec.pos <> Bytes.length c.Codec.bytes then
    Errors.corruption "snapshot %s: %d trailing bytes" path
      (Bytes.length c.Codec.bytes - c.Codec.pos);
  db

(* ------------------------------------------------------------------ *)
(* Snapshot-isolated transactions.

   MVCC at relation granularity, riding the same versions the plan
   cache's stats epoch already sums.  A transaction pins a *snapshot* —
   a facade database sharing the committed Relation.t handles — under
   the store lock, so it sees every relation at one commit point and
   none of the installs that happen while it runs.  A write transaction
   never touches a committed state: its first write to a relation takes
   a private [Relation.copy] (continuing the original's version lineage
   so epochs stay monotone), and commit *installs* the copies by
   swapping the handles in the store's catalog.

   Conflicts are first-committer-wins: commit re-checks, under the
   store lock, that every written relation still has the commit
   sequence the snapshot saw.  Because durability (the WAL fsync) runs
   outside the lock so that concurrent commits can share fsyncs, a
   passed check is protected by a *reservation* on the written
   relations; a competing writer aborts on the reservation instead of
   sneaking through the fsync window.

   Durability: [attach_wal] snapshots the database with [save], opens a
   WAL beside it and freezes the committed states; from then on commit
   appends the transaction's operations to the WAL (group commit)
   before installing.  [open_durable] is crash recovery — load the
   snapshot, replay the WAL's intact records, checkpoint.  Replay is
   idempotent (inserts are upserts) because a crash between the
   checkpoint's snapshot save and its WAL truncation replays a log
   whose prefix is already in the snapshot. *)

module Txn = struct
  type kind = Read | Write
  type state = Open | Committed | Aborted

  type nonrec t = {
    store : t;
    view_db : t;
    kind : kind;
    id : int;
    read_seqs : (string, int) Hashtbl.t;  (* last_commit at pin time *)
    touched : (string, Relation.t) Hashtbl.t;  (* private copies *)
    touched_idx : (string, Secondary_index.t list) Hashtbl.t;
        (* private secondary-index copies, pinned with the relation
           copy at first write and installed together at commit *)
    mutable ops : Wal.op list;  (* reversed write set *)
    mutable state : state;
  }

  (* Pin a snapshot: copy the catalog's handle tables under the store
     lock, so the view is one commit point even while writers install.
     Committed Relation.t states are never mutated in place, so sharing
     the handles is safe; the view's own mvcc state is fresh and inert. *)
  let begin_txn kind store =
    let m = store.mvcc in
    Mutex.lock m.mu;
    let view_db =
      {
        rels = Hashtbl.copy store.rels;
        enums = Hashtbl.copy store.enums;
        sec_indexes = Hashtbl.copy store.sec_indexes;
        catalog_version = store.catalog_version;
        mvcc = fresh_mvcc ();
      }
    in
    let read_seqs = Hashtbl.copy m.last_commit in
    let id = m.next_txn in
    m.next_txn <- id + 1;
    Mutex.unlock m.mu;
    Obs.Metrics.incr
      (match kind with
      | Read -> "txn.begin_read"
      | Write -> "txn.begin_write");
    {
      store;
      view_db;
      kind;
      id;
      read_seqs;
      touched = Hashtbl.create 4;
      touched_idx = Hashtbl.create 4;
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

  (* Copy-on-first-write: swap a private copy into the view so the
     transaction reads its own writes through the normal executors.
     Secondary indexes ride along — each gets a private {!
     Secondary_index.copy} (sharing bucket spines with the committed
     state) hooked to the relation copy, so the transaction's writes
     maintain its own indexes incrementally while the committed ones
     stay pinned for concurrent snapshot readers. *)
  let touch txn name =
    match Hashtbl.find_opt txn.touched name with
    | Some c -> c
    | None ->
      let orig = find_relation txn.view_db name in
      let c = Relation.copy orig in
      Relation.set_version c (Relation.version orig);
      Hashtbl.replace txn.touched name c;
      Hashtbl.replace txn.view_db.rels name c;
      (match secondary_indexes txn.view_db name with
      | [] -> ()
      | idxs ->
        let copies = List.map Secondary_index.copy idxs in
        List.iter (hook_index c) copies;
        Hashtbl.replace txn.touched_idx name copies;
        Hashtbl.replace txn.view_db.sec_indexes name copies);
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

  let read_seq txn name =
    match Hashtbl.find_opt txn.read_seqs name with Some s -> s | None -> 0

  (* First-committer-wins, called with the store lock held: a written
     relation whose committed sequence moved past our snapshot — or one
     reserved by a commit in its fsync window — loses. *)
  let conflicting m txn =
    Hashtbl.fold
      (fun name _ acc ->
        match acc with
        | Some _ -> acc
        | None ->
          let committed =
            match Hashtbl.find_opt m.last_commit name with
            | Some s -> s
            | None -> 0
          in
          if committed <> read_seq txn name then Some name
          else (
            match Hashtbl.find_opt m.reserved name with
            | Some id when id <> txn.id -> Some name
            | Some _ | None -> None))
      txn.touched None

  let unreserve m txn =
    Hashtbl.iter (fun name _ -> Hashtbl.remove m.reserved name) txn.touched;
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
    if txn.kind = Read || Hashtbl.length txn.touched = 0 then
      txn.state <- Committed
    else begin
      let m = txn.store.mvcc in
      Mutex.lock m.mu;
      while m.checkpointing do
        Condition.wait m.cond m.mu
      done;
      if m.durable && m.wal = None then begin
        Mutex.unlock m.mu;
        abort txn;
        Errors.io_error "Txn.commit: database is closed"
      end;
      (match conflicting m txn with
      | Some name ->
        Mutex.unlock m.mu;
        txn.state <- Aborted;
        Obs.Metrics.incr "txn.conflicts";
        Obs.Metrics.incr "txn.aborts";
        Errors.txn_conflict
          "relation %s was committed by a concurrent transaction" name
      | None -> ());
      Hashtbl.iter
        (fun name _ -> Hashtbl.replace m.reserved name txn.id)
        txn.touched;
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
      Mutex.lock m.mu;
      m.commit_seq <- m.commit_seq + 1;
      Hashtbl.iter
        (fun name c ->
          if m.durable then Relation.freeze c;
          Hashtbl.replace txn.store.rels name c;
          (* The index copies install with their relation: they were
             maintained through every write of this transaction, so no
             rebuild is needed; pinned readers keep the old pair. *)
          (match Hashtbl.find_opt txn.touched_idx name with
          | Some idxs -> Hashtbl.replace txn.store.sec_indexes name idxs
          | None -> ());
          Hashtbl.replace m.last_commit name m.commit_seq)
        txn.touched;
      unreserve m txn;
      Mutex.unlock m.mu;
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
let wal_attached db = db.mvcc.wal <> None
let durable db = db.mvcc.durable

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
  let m = db.mvcc in
  Mutex.lock m.mu;
  m.wal <- Some w;
  m.snapshot_path <- Some path;
  m.durable <- true;
  Mutex.unlock m.mu;
  Hashtbl.iter (fun _ r -> Relation.freeze r) db.rels

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
  if replayed > 0 then begin
    (* Replay mutations already maintained the secondary indexes
       through the observers [load] attached; verify and rebuild any
       index the replay nevertheless left inconsistent. *)
    let indexed =
      Hashtbl.fold (fun n idxs acc -> (n, idxs) :: acc) db.sec_indexes []
    in
    List.iter
      (fun (rel_name, idxs) ->
        let rel = find_relation db rel_name in
        if
          List.exists
            (fun i -> not (Secondary_index.consistent_with i rel))
            idxs
        then begin
          let rebuilt =
            List.map
              (fun i ->
                Obs.Metrics.incr "index.recovery_rebuilds";
                Secondary_index.build ~kind:(Secondary_index.kind i) rel
                  ~on:(Secondary_index.on i))
              idxs
          in
          Relation.clear_observers rel;
          List.iter (hook_index rel) rebuilt;
          Hashtbl.replace db.sec_indexes rel_name rebuilt
        end)
      indexed
  end;
  (* Checkpoint the recovered state before going live: the snapshot
     absorbs the replayed transactions and the log restarts empty. *)
  save db ~path;
  make_durable db ~path (Wal.create (wal_path path));
  Obs.Metrics.incr "db.recoveries";
  db

let checkpoint db =
  let m = db.mvcc in
  match m.wal, m.snapshot_path with
  | Some w, Some path ->
    Mutex.lock m.mu;
    (* Block new reservations and wait out in-flight commits: a commit
       past its conflict check but not yet installed must not fall
       between a truncated WAL and a snapshot that missed it. *)
    m.checkpointing <- true;
    while Hashtbl.length m.reserved > 0 do
      Condition.wait m.cond m.mu
    done;
    let finish () =
      m.checkpointing <- false;
      Condition.broadcast m.cond;
      Mutex.unlock m.mu
    in
    (try
       (* Crash point 1: nothing written yet — snapshot and WAL intact. *)
       if Failpoint.should_fire "wal.checkpoint.crash" then begin
         Obs.Metrics.incr "wal.checkpoint_crashes";
         Errors.io_error "wal.checkpoint.crash: before snapshot %s" path
       end;
       save db ~path;
       (* Crash point 2: new snapshot durable, WAL not yet truncated —
          recovery replays a log whose effects the snapshot already
          holds, which upsert replay absorbs. *)
       if Failpoint.should_fire "wal.checkpoint.crash" then begin
         Obs.Metrics.incr "wal.checkpoint_crashes";
         Errors.io_error "wal.checkpoint.crash: before truncating %s"
           (Wal.path w)
       end;
       Wal.truncate w;
       Obs.Metrics.incr "db.checkpoints"
     with e ->
       finish ();
       raise e);
    finish ()
  | _ -> Errors.io_error "checkpoint: no wal attached"

let close db =
  match db.mvcc.wal with
  | None -> ()
  | Some w ->
    checkpoint db;
    Wal.close w;
    db.mvcc.wal <- None
