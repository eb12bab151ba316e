(** Tuples: flat value arrays interpreted against a {!Schema.t}. *)

type t = Value.t array

val of_list : Value.t list -> t
val to_list : t -> Value.t list
val arity : t -> int
val get : t -> int -> Value.t

val get_by_name : Schema.t -> t -> string -> Value.t
(** @raise Errors.Unknown_attribute *)

val compare : t -> t -> int
(** Lexicographic; shorter tuples order first. *)

val equal : t -> t -> bool
val hash : t -> int

val project : int array -> t -> t
val project_names : Schema.t -> string list -> t -> t
val values_at : int array -> t -> Value.t list
(** The values at the given positions, in order. *)

val key_of : Schema.t -> t -> Value.t list
(** The tuple's key values under the schema's declared key. *)

val well_typed : Schema.t -> t -> bool

val pp : t Fmt.t
val to_string : t -> string
