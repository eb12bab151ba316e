(** Column-major tuple batches for the vectorized stream kernels.

    Every column is an integer image of its values: integers are stored
    unboxed ([int array]), booleans as one byte per row in [Bytes], and
    everything else as ids of a {!pool}.  Equal ids are equal values, so
    the integer image of a row ({!key_of_row}) compares like the tuple
    itself — dedup sets and join tables hash machine integers.

    A pool is one execution's tuple table.  The collection scan that
    finds a base element gives it an {e ordinal} ({!ordinals}), once per
    (relation, key), and keeps the physical tuple at that ordinal
    ({!tuple_at}).  A reference made during an execution is that
    ordinal: single lists, indirect joins and every n-tuple relation of
    the combination phase are {!columns} of ordinals.  The
    relation-level entry points ({!of_relation}, {!to_relation}) intern
    values instead — strings, enums and stored references — for callers
    that hand the kernels a {!Relation.t}.

    A batch optionally carries a selection vector (ascending live row
    indices): filters refine it, projections share the column arrays,
    and only the row-multiplying operators gather into dense columns. *)

type col = C_int of int array | C_bool of Bytes.t | C_obj of int array

type columns = {
  c_name : string;
  c_schema : Schema.t;
  c_cols : col array;  (** one per attribute of [c_schema] *)
  c_rows : int;
}
(** A relation as int columns over one pool. *)

type pool
(** One execution's tuple table (ordinals) and value interning. *)

type t = {
  cols : col array;
  nrows : int;                (** physical length of every column *)
  sel : int array option;     (** ascending live row indices; [None] = all *)
}

val create_pool : unit -> pool

val ordinals : pool -> Relation.t -> Tuple.t -> int
(** [ordinals pool rel] numbers the elements of [rel]: applied to one,
    it returns the element's ordinal, the same for every tuple of [rel]
    with the same key values however often and through whichever
    interner it is asked, and distinct from every other element's — of
    [rel] or of any other relation (relations are told apart by name).
    Applying it allocates nothing but the table's growth. *)

val tuple_at : pool -> int -> Tuple.t
(** The tuple an ordinal was first given for. *)

type cls = K_int | K_bool | K_obj

val cls_of_type : Vtype.t -> cls
(** The column class an attribute domain encodes into — kernels refuse
    to pair columns of different classes. *)

val of_relation : pool -> Relation.t -> columns
(** A relation's contents as columns, in (uninstrumented) iteration
    order, its values interned into the pool.
    @raise Errors.Type_error on a value that does not fit its column's
    declared class — unreachable for tuples written through the
    checked insertion path. *)

val to_relation : pool -> columns -> Relation.t
(** The rows of {!of_relation}-encoded columns as a whole-tuple-keyed
    relation, values decoded; ordinal columns do not decode. *)

val window : columns -> off:int -> len:int -> t
(** Zero-copy window onto columns: shared arrays, the selection vector
    naming rows [off .. off+len-1]. *)

val live_count : t -> int
val live_iter : (int -> unit) -> t -> unit

val cell : col -> int -> int
(** Integer image of one cell (value, 0/1 byte, or pool id). *)

val filter : t -> (int -> bool) -> t
(** Refine the selection vector to the live rows satisfying the
    predicate (given row indices). *)

val project : t -> int array -> t
(** Share the named columns; no copying. *)

val key_of_row : col array -> int array -> int -> int array
(** Integer key of a row over the positioned columns. *)

val gather_cols : col array -> int array -> col array
(** Dense copies of the columns at the given row indices. *)

val of_cols : col array -> int -> t

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
(** Column builder: the collection phase's structures, a
    materialization's distinct rows, a division's quotient. *)

val acc_create : name:string -> Schema.t -> acc
(** Column classes come from the schema, so an empty result still
    finishes into well-shaped columns. *)

val acc_push : acc -> t -> int -> unit
(** Append the given (physical) row's cells. *)

val acc_push_cell : acc -> int -> int -> unit
(** [acc_push_cell acc c x] appends the integer image [x] to column
    [c]; a row is complete once every column has had its cell. *)

val acc_finish : acc -> columns

(** Hash tables keyed by integer rows. *)
module Ikey : Hashtbl.S with type key = int array
