(** Value lists for collection-phase quantifier evaluation (paper
    Section 4.4, strategy 4), with the paper's reduced storage policies:
    min/max only for the order comparisons, and at-most-one value for
    [ALL =] / [SOME <>].

    A [Full] list holds its values in a bitset when the column's
    declared domain is a subrange, enumeration or boolean whose bitset
    takes at most as many 63-bit words as the build scans tuples, and
    in a hash set otherwise; the two answer every question alike. *)

type storage =
  | Full          (** all distinct values *)
  | Bounds        (** only min/max — for [< <= > >=] *)
  | At_most_one   (** first value + saw-two-distinct flag — for [ALL =] / [SOME <>] *)

type quantifier = Q_some | Q_all

type t

val create : ?storage:storage -> domain:Vtype.t -> rows:int -> unit -> t
(** An empty list of values of [domain], the declared domain of the
    column a build that scans [rows] tuples reads.  A [Full] list is a
    bitset when [domain] is finite and at most [63 * rows] wide (so a
    build that scans nothing keeps a hash set). *)

val is_bitset : t -> bool
(** Whether [create] chose the bitset and it still holds every value. *)

val add : t -> Value.t -> unit
(** A value outside a bitset's domain moves the list to a hash set.
    @raise Errors.Type_error if a bitset list gets a value of another
    kind. *)

val of_column : ?storage:storage -> Relation.t -> string -> t
(** Build from one component of a relation by a counted scan, with the
    component's declared domain and the relation's cardinality. *)

val is_empty : t -> bool

val mem : t -> Value.t -> bool
(** Full storage only. @raise Errors.Type_error otherwise. *)

val distinct_count : t -> int option
val stored_size : t -> int
(** Component values physically retained (the paper's storage claim). *)

val min_value : t -> Value.t option
val max_value : t -> Value.t option

val to_sorted_list : t -> Value.t list
(** Full storage only. @raise Errors.Type_error otherwise. *)

val quant_holds : quant:quantifier -> Value.comparison -> Value.t -> t -> bool
(** [quant_holds ~quant op v t] decides [(quant w IN t) (v op w)].
    SOME over empty is false; ALL over empty is true.  Reduced storage
    policies decide exactly the paper's operator/quantifier cases and
    raise {!Errors.Type_error} outside them. *)

val tester :
  quant:quantifier -> Value.comparison -> t -> pos:int -> Tuple.t -> bool
(** [tester ~quant op t ~pos] is
    [fun tuple -> quant_holds ~quant op tuple.(pos) t] for a list that
    gets no more adds: emptiness, the storage policy's case and the
    bound compared against are decided once, so a tuple pays one test
    (a range check and a bit for a bitset's [=]).  Answers and errors
    are {!quant_holds}'s. *)

val adder : ?if_member:t * int -> t -> pos:int -> Tuple.t -> unit
(** [adder t ~pos] is [fun tuple -> add t tuple.(pos)], fixed once for
    a build that adds one component of the tuples it scans: a value of
    a bitset's domain sets its bit directly, any other value goes
    through {!add}, hash-set move included.  [~if_member:(l, p)] adds
    only the tuples whose component [p] is a {!mem}ber of the Full list
    [l], which gets no more adds:
    [fun tuple -> if mem l tuple.(p) then add t tuple.(pos)]. *)
