(** Write-ahead log: incremental group-commit durability between
    {!Database.save} checkpoints.

    A committed transaction's logical operations are encoded through
    {!Codec} into one Adler-32-checksummed record, appended and fsynced
    before the in-memory install.  {!replay} applies the intact records
    on top of the last snapshot; a checkpoint pins a {!mark}, saves the
    snapshot while commits go on, then {!truncate_upto} drops the
    records the snapshot holds.
    Appends serialize under a mutex but the fsync runs outside it —
    commits that find a sync in flight piggyback on the next one
    (group commit, counted by [wal.group_commits]).

    Fault injection: the [wal.append.crash] site tears a record
    mid-write; [wal.fsync.crash] drops the un-fsynced tail (the bytes a
    power cut would lose).  Either poisons the log — further commits
    raise — modelling a dead process; recovery is reopening from disk. *)

type op =
  | Insert of string * Bytes.t
      (** target relation, schema-directed [Codec.encode_tuple] bytes *)
  | Delete of string * Value.t list  (** target relation, key values *)
  | Clear of string

type t

val create : string -> t
(** Create (or truncate) the log file and write the magic header. *)

val path : t -> string

val commit : t -> op list -> unit
(** Append one transaction's record and return once an fsync covers it.
    @raise Errors.Io_error on an injected crash; the commit did not
    happen and the log refuses further commits until reopened. *)

val replay : string -> apply:(op list -> unit) -> int
(** Apply every intact committed record in order; a torn or corrupt
    tail ends replay silently, a missing file replays nothing.  The
    header names the log's base sequence (the last commit the
    checkpoint's snapshot holds); records must run consecutively from
    base + 1, so a log that lost its head is refused.  Returns the
    number of transactions applied.
    @raise Errors.Corruption on a damaged header or out-of-order
    commit sequence (not mere tail damage). *)

type mark
(** A log position: the last appended record. *)

val mark : t -> mark

val truncate_upto : t -> mark -> unit
(** Drop the records at or below the mark, which a checkpoint made
    durable in the snapshot, and keep those appended since: the tail
    is copied into a fresh log, fsynced and renamed over the old one.
    @raise Errors.Io_error if the log is closed or poisoned. *)

val close : t -> unit
