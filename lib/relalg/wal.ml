(* Write-ahead log: incremental group-commit durability between
   [Database.save] checkpoints.

   The snapshot file written by [Database.save] is atomic but monolithic
   — every commit would have to rewrite the whole database.  The WAL
   turns that into an append: a committed transaction's logical
   operations are encoded through [Codec] into one checksummed record,
   appended and fsynced before the in-memory install.  On open, the log
   is replayed on top of the last snapshot.  A checkpoint saves a
   snapshot pinned at a {!mark} while commits go on appending, then
   {!truncate_upto} drops the records at or below the mark and keeps
   the ones appended since.

   File header: the 11-byte magic, then the i64 base sequence — the
   last commit a checkpoint's snapshot holds, 0 for a fresh log — so
   the first record must carry base + 1.  Record framing:

     i64 payload length | payload | i64 Adler-32 of payload

   and the payload is

     i64 commit sequence | u16 op count | ops

   with each op one of

     'I' relname  tuple-bytes     (schema-directed [Codec.encode_tuple])
     'D' relname  u16 n  values   (self-described key values)
     'C' relname                  (clear)

   A torn tail — a record cut short by a crash, or whose checksum does
   not match — ends replay at the last intact record, exactly the
   semantics of losing un-fsynced bytes.  Group commit: appends are
   serialized under a mutex, but the fsync happens outside it; a commit
   that finds a sync already in flight waits on a condition variable and
   piggybacks on the next one, so one fsync can make many commits
   durable ([wal.group_commits] counts the saved fsyncs).

   Fault injection: [wal.append.crash] tears the record mid-write and
   poisons the log; [wal.fsync.crash] drops the un-fsynced tail (the
   bytes a real power cut would lose) and poisons the log.  A poisoned
   log refuses further commits — the process is considered dead; tests
   reopen from disk and verify recovery. *)

type op =
  | Insert of string * Bytes.t  (* relation name, Codec.encode_tuple bytes *)
  | Delete of string * Value.t list
  | Clear of string

type t = {
  path : string;
  mutable fd : Unix.file_descr;
  mu : Mutex.t;
  cond : Condition.t;
  mutable appended : int;  (* commit seq of the last appended record *)
  mutable synced : int;  (* commit seq covered by the last fsync *)
  mutable syncing : bool;  (* one domain is inside fsync *)
  mutable off : int;  (* file length = end of last appended record *)
  mutable synced_off : int;  (* file length covered by the last fsync *)
  mutable poisoned : bool;  (* an injected crash tore the tail *)
  mutable closed : bool;
}

let magic = "PASCALRWAL2"
let header_len = String.length magic + 8

let rec write_all fd b pos len =
  if len > 0 then begin
    let n = Unix.write fd b pos len in
    write_all fd b (pos + n) (len - n)
  end

(* A log file holding [tail] after the header naming [base], durable
   before [create]/[truncate_upto] return it. *)
let write_log path ~base tail =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let header = Buffer.create header_len in
  Buffer.add_string header magic;
  Codec.put_i64 header base;
  write_all fd (Buffer.to_bytes header) 0 header_len;
  write_all fd tail 0 (Bytes.length tail);
  (try Unix.fsync fd with Unix.Unix_error _ -> ());
  fd

let create path =
  let fd = write_log path ~base:0 Bytes.empty in
  {
    path;
    fd;
    mu = Mutex.create ();
    cond = Condition.create ();
    appended = 0;
    synced = 0;
    syncing = false;
    off = header_len;
    synced_off = header_len;
    poisoned = false;
    closed = false;
  }

let path t = t.path

let encode_op buf = function
  | Insert (rel, tup) ->
    Buffer.add_char buf 'I';
    Codec.put_string buf rel;
    Codec.put_string buf (Bytes.to_string tup)
  | Delete (rel, key) ->
    Buffer.add_char buf 'D';
    Codec.put_string buf rel;
    Codec.put_u16 buf (List.length key);
    List.iter (Codec.put_value buf) key
  | Clear rel ->
    Buffer.add_char buf 'C';
    Codec.put_string buf rel

let encode_record ~seq ops =
  let payload = Buffer.create 256 in
  Codec.put_i64 payload seq;
  Codec.put_u16 payload (List.length ops);
  List.iter (encode_op payload) ops;
  let payload = Buffer.to_bytes payload in
  let plen = Bytes.length payload in
  let rcd = Buffer.create (plen + 16) in
  Codec.put_i64 rcd plen;
  Buffer.add_bytes rcd payload;
  Codec.put_i64 rcd (Codec.adler32 payload ~pos:0 ~len:plen);
  Buffer.to_bytes rcd

(* Drop the un-fsynced tail, as a power cut would, and refuse further
   commits.  Called with [t.mu] held. *)
let drop_unsynced_tail t =
  t.poisoned <- true;
  (try
     Unix.ftruncate t.fd t.synced_off;
     ignore (Unix.lseek t.fd t.synced_off Unix.SEEK_SET)
   with Unix.Unix_error _ -> ());
  t.off <- t.synced_off;
  t.appended <- t.synced;
  Condition.broadcast t.cond

let check_usable t =
  if t.closed then Errors.io_error "wal %s is closed" t.path;
  if t.poisoned then
    Errors.io_error "wal %s: torn tail after injected crash; reopen to recover"
      t.path

let ms_since t0 = (Unix.gettimeofday () -. t0) *. 1000.

(* Append the record and make it durable; returns only once an fsync
   covering the record has completed.  @raise Errors.Io_error on an
   injected crash (the commit did not happen; the log is poisoned). *)
let commit t ops =
  let t0 = Unix.gettimeofday () in
  Mutex.lock t.mu;
  (try
     check_usable t;
     let rcd = encode_record ~seq:(t.appended + 1) ops in
     if Failpoint.should_fire "wal.append.crash" then begin
       (* Torn write: half the record reaches the file, then the
          process "dies".  Replay must stop at the previous record. *)
       (try write_all t.fd rcd 0 (Bytes.length rcd / 2)
        with Unix.Unix_error _ -> ());
       t.poisoned <- true;
       Condition.broadcast t.cond;
       Obs.Metrics.incr "wal.append_crashes";
       Errors.io_error "wal.append.crash: torn record in %s" t.path
     end;
     write_all t.fd rcd 0 (Bytes.length rcd);
     t.appended <- t.appended + 1;
     t.off <- t.off + Bytes.length rcd;
     Obs.Metrics.incr "wal.appends";
     Obs.Metrics.incr ~by:(Bytes.length rcd) "wal.bytes"
   with e ->
     Mutex.unlock t.mu;
     raise e);
  let my = t.appended in
  let t1 = Unix.gettimeofday () in
  Obs.Metrics.observe "wal.append_ms" ((t1 -. t0) *. 1000.);
  (* Group fsync: either piggyback on a sync in flight or run one. *)
  let rec ensure_synced () =
    if t.synced >= my then ()
    else if t.poisoned then begin
      (* A concurrent commit crashed; our record was in the dropped
         tail.  The commit did not happen. *)
      Mutex.unlock t.mu;
      Errors.io_error "wal %s: commit lost to a concurrent injected crash"
        t.path
    end
    else if t.syncing then begin
      Condition.wait t.cond t.mu;
      ensure_synced ()
    end
    else begin
      t.syncing <- true;
      let upto = t.appended and upto_off = t.off in
      Mutex.unlock t.mu;
      let outcome =
        if Failpoint.should_fire "wal.fsync.crash" then `Crash
        else begin
          let t0 = Unix.gettimeofday () in
          (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
          Obs.Metrics.observe "wal.fsync_ms" (ms_since t0);
          Obs.Metrics.incr "wal.fsyncs";
          `Ok
        end
      in
      Mutex.lock t.mu;
      t.syncing <- false;
      match outcome with
      | `Ok ->
        if upto - t.synced > 1 then Obs.Metrics.incr "wal.group_commits";
        t.synced <- max t.synced upto;
        t.synced_off <- max t.synced_off upto_off;
        Condition.broadcast t.cond;
        ensure_synced ()
      | `Crash ->
        (* The un-fsynced bytes never reached the platter. *)
        drop_unsynced_tail t;
        Obs.Metrics.incr "wal.fsync_crashes";
        Mutex.unlock t.mu;
        Errors.io_error "wal.fsync.crash: lost un-fsynced tail of %s" t.path
    end
  in
  ensure_synced ();
  Mutex.unlock t.mu;
  Obs.Metrics.observe "wal.sync_wait_ms" (ms_since t1);
  Obs.Metrics.incr "wal.commits"

let decode_ops payload =
  let cur = Codec.cursor payload in
  let seq = Codec.get_i64 cur in
  let nops = Codec.get_u16 cur in
  let ops =
    List.init nops (fun _ ->
        match Char.chr (Codec.get_u8 cur) with
        | 'I' ->
          let rel = Codec.get_string cur in
          let tup = Bytes.of_string (Codec.get_string cur) in
          Insert (rel, tup)
        | 'D' ->
          let rel = Codec.get_string cur in
          let n = Codec.get_u16 cur in
          let key = List.init n (fun _ -> Codec.get_value cur) in
          Delete (rel, key)
        | 'C' -> Clear (Codec.get_string cur)
        | c -> Errors.corruption "wal: unknown op tag %C" c)
  in
  if cur.Codec.pos <> Bytes.length payload then
    Errors.corruption "wal: %d trailing payload bytes"
      (Bytes.length payload - cur.Codec.pos);
  (seq, ops)

(* Replay every intact committed record in order.  A torn or corrupt
   tail ends replay silently (those commits never became durable); a
   missing file replays nothing.  Returns the number of transactions
   applied. *)
let replay path ~apply =
  if not (Sys.file_exists path) then 0
  else begin
    let data =
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let b = Bytes.create n in
      really_input ic b 0 n;
      close_in ic;
      b
    in
    let len = Bytes.length data in
    if
      len < header_len
      || Bytes.sub_string data 0 (String.length magic) <> magic
    then Errors.corruption "wal %s: bad magic" path;
    let expect =
      let cur = Codec.cursor data in
      cur.Codec.pos <- String.length magic;
      ref (Codec.get_i64 cur + 1)
    in
    let pos = ref header_len in
    let applied = ref 0 in
    let intact = ref true in
    while !intact && !pos + 16 <= len do
      let cur = Codec.cursor data in
      cur.Codec.pos <- !pos;
      let plen = Codec.get_i64 cur in
      if plen < 0 || cur.Codec.pos + plen + 8 > len then intact := false
      else begin
        let payload = Bytes.sub data cur.Codec.pos plen in
        let stored =
          cur.Codec.pos <- cur.Codec.pos + plen;
          Codec.get_i64 cur
        in
        if stored <> Codec.adler32 payload ~pos:0 ~len:plen then
          intact := false
        else
          match decode_ops payload with
          | seq, ops ->
            if seq <> !expect then
              Errors.corruption "wal %s: commit %d where %d expected" path
                seq !expect;
            incr expect;
            apply ops;
            incr applied;
            Obs.Metrics.incr "wal.replayed_txns";
            pos := cur.Codec.pos
          | exception Errors.Corruption _ -> intact := false
      end
    done;
    !applied
  end

(* The position a checkpoint pins: the last appended record's commit
   sequence and the file offset just past it. *)
type mark = { seq : int; off : int }

let mark t =
  Mutex.lock t.mu;
  let m = { seq = t.appended; off = t.off } in
  Mutex.unlock t.mu;
  m

(* Checkpoint: the records up to [m] are in the snapshot.  The records
   appended since are copied into a fresh log, fsynced and renamed over
   the old one, so a crash leaves either log whole.  Appends wait on
   the mutex for the copy — the tail is only what arrived during the
   snapshot save — and an fsync in flight on the old file finishes
   first, so no domain syncs a closed descriptor. *)
let truncate_upto t m =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      while t.syncing do
        Condition.wait t.cond t.mu
      done;
      check_usable t;
      let tail = Bytes.create (t.off - m.off) in
      let ic = open_in_bin t.path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          seek_in ic m.off;
          really_input ic tail 0 (Bytes.length tail));
      let tmp = t.path ^ ".tmp" in
      let fd = write_log tmp ~base:m.seq tail in
      Unix.rename tmp t.path;
      (try Unix.close t.fd with Unix.Unix_error _ -> ());
      t.fd <- fd;
      t.off <- header_len + Bytes.length tail;
      t.synced_off <- t.off;
      t.synced <- t.appended;
      Condition.broadcast t.cond;
      Obs.Metrics.incr "wal.truncations")

let close t =
  Mutex.lock t.mu;
  if not t.closed then begin
    t.closed <- true;
    (try Unix.close t.fd with Unix.Unix_error _ -> ())
  end;
  Mutex.unlock t.mu
