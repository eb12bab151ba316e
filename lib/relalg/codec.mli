(** Binary tuple encoding for the paged storage layer.  Schema-directed:
    enumerations are stored as ordinals and reconstructed from the
    schema; reference values are self-described.

    All decoding is bounds-checked: damaged bytes (truncation, unknown
    tags) raise {!Errors.Corruption} rather than crashing, so the
    storage layer above can invalidate and rebuild. *)

val encode_tuple : Schema.t -> Tuple.t -> Bytes.t

val put_tuple : Buffer.t -> Schema.t -> Tuple.t -> unit
(** Append {!encode_tuple}'s bytes to the buffer. *)

val decode_tuple : Schema.t -> Bytes.t -> Tuple.t
(** Consults the [codec.decode.corrupt] failpoint.
    @raise Errors.Corruption on undecodable bytes. *)

val put_value : Buffer.t -> Value.t -> unit
(** Self-described single-value encoding (as used inside references). *)

(** {2 Primitives}

    Shared by the heap file's page layout and the database snapshot
    format. *)

val put_u16 : Buffer.t -> int -> unit
(** @raise Errors.Type_error if out of [0, 0xFFFF]. *)

val put_i64 : Buffer.t -> int -> unit
val put_string : Buffer.t -> string -> unit

type cursor = { bytes : Bytes.t; mutable pos : int }

val cursor : Bytes.t -> cursor

val get_u8 : cursor -> int
(** All cursor reads: @raise Errors.Corruption on truncated input. *)

val get_u16 : cursor -> int
val get_i64 : cursor -> int
val get_string : cursor -> string

val get_value : cursor -> Value.t
(** Decoded enum values carry only their enumeration name and ordinal
    (empty label table) — sufficient for equality and ordering. *)

val adler32 : Bytes.t -> pos:int -> len:int -> int
(** Adler-32 of a byte range: the checksum word stored in heap pages
    and at the tail of database snapshots. *)
