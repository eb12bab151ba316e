(** Column-major tuple batches for the vectorized stream kernels.

    Fixed-width components (integers, booleans) are stored unboxed
    ([int array], one byte per row in [Bytes]); strings, enums and
    references are interned into a chain-scoped {!pool} and stored as
    pool ids.  Interning is injective with respect to {!Value.equal}, so
    the integer image of a row ({!key_of_row}) compares like the tuple
    itself — dedup sets and join tables hash machine integers instead of
    re-hashing nested reference keys per row.

    A batch optionally carries a selection vector (ascending live row
    indices): filters refine it, projections share the column arrays,
    and only the row-multiplying operators gather into dense columns. *)

type col = C_int of int array | C_bool of Bytes.t | C_obj of int array

type encoded
(** One relation's columns, encoded in iteration order. *)

type pool
(** Chain-scoped interning state plus a per-relation encode cache. *)

type t = {
  cols : col array;
  nrows : int;                (** physical length of every column *)
  sel : int array option;     (** ascending live row indices; [None] = all *)
  pool : pool;
}

val create_pool : unit -> pool
val intern : pool -> Value.t -> int
val value : pool -> int -> Value.t

type cls = K_int | K_bool | K_obj

val cls_of_type : Vtype.t -> cls
(** The column class an attribute domain encodes into — kernels refuse
    to pair columns of different classes. *)

val encode_relation : pool -> Relation.t -> encoded
(** Encode a relation's contents (uninstrumented iteration order),
    memoized in the pool by physical identity and content version.
    @raise Errors.Type_error on a value that does not fit its column's
    declared class — unreachable for tuples written through the
    checked insertion path. *)

val register_unordered : pool -> Relation.t -> encoded Lazy.t -> unit
(** Hand the pool an encode of the relation's contents in INSERTION
    order, forced on first use — the stream materializer and the
    collection phase's pair builder register the rows they inserted, so
    a later set-semantics pass skips the re-encode. *)

val encode_relation_unordered : pool -> Relation.t -> encoded
(** Like {!encode_relation} but may return a {!register_unordered}
    encode whose row order is not the iteration order.  The row set is
    always the relation's contents; only order-insensitive consumers
    (the columnar divide) may use this. *)

val encoded_rows : encoded -> int

val of_encoded : pool -> encoded -> off:int -> len:int -> t
(** Zero-copy window onto an encoded relation: shared columns, the
    selection vector naming rows [off .. off+len-1]. *)

val live_count : t -> int
val live_iter : (int -> unit) -> t -> unit

val cell : col -> int -> int
(** Integer image of one cell (value, 0/1 byte, or pool id). *)

val tuple : t -> int -> Tuple.t
(** Decode one row back to a boxed tuple; interned cells return the
    physically original values. *)

val filter : t -> (int -> bool) -> t
(** Refine the selection vector to the live rows satisfying the
    predicate (given row indices). *)

val project : t -> int array -> t
(** Share the named columns; no copying. *)

val key_of_row : col array -> int array -> int -> int array
(** Integer key of a row over the positioned columns. *)

val gather_cols : col array -> int array -> col array
(** Dense copies of the columns at the given row indices. *)

val of_cols : pool -> col array -> int -> t

(** Growable integer vector — gather-index accumulator for joins whose
    output size is unknown up front. *)
module Ivec : sig
  type t

  val create : unit -> t
  val push : t -> int -> unit
  val length : t -> int
  val to_array : t -> int array
end

type acc
(** Output accumulator: collects the integer cells of the rows a
    batched materialize actually inserts, for {!register_unordered}. *)

val acc_create : cls array -> acc
(** Column classes come from the destination schema, so an empty
    output still finishes into well-shaped columns. *)

val acc_push : acc -> t -> int -> unit
(** Append the given (physical) row's cells to the accumulator. *)

val acc_push_cell : acc -> int -> int -> unit
(** [acc_push_cell acc c x] appends the integer image [x] to column
    [c] — for builders that produce interned ids directly. *)

val acc_finish : acc -> encoded

(** Hash tables keyed by integer rows. *)
module Ikey : Hashtbl.S with type key = int array
