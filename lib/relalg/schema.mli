(** Relation schemas: ordered named, typed attributes plus a declared key
    (PASCAL/R: [RELATION <key> OF RECORD ... END]). *)

type attr = { attr_name : string; attr_type : Vtype.t }

type t

val attr : string -> Vtype.t -> attr

val make : attr list -> key:string list -> t
(** [make attrs ~key] builds a schema.  An empty [key] declares all
    attributes as key (pure set semantics, used for intermediate
    reference relations).
    @raise Errors.Schema_error on duplicate names or unknown key names. *)

val arity : t -> int
val attrs : t -> attr list
val attr_at : t -> int -> attr
val names : t -> string list
val key_positions : t -> int array
(** A fresh copy of the key positions. *)

val key_length : t -> int
val key_position : t -> int -> int
(** [key_position s i] is the position of the [i]th key attribute —
    {!key_positions} without the copy. *)

val key_names : t -> string list

val index_of : t -> string -> int
(** @raise Errors.Unknown_attribute *)

val mem : t -> string -> bool
val type_of : t -> string -> Vtype.t
val type_at : t -> int -> Vtype.t
val name_at : t -> int -> string

val project : t -> string list -> t
(** Schema of the projection onto the given names, keyed by everything. *)

val concat : t -> t -> t
(** Schema of a product; names must stay distinct. *)

val rename : t -> (string * string) list -> t
(** Rename attributes according to the association list. *)

val compatible : t -> t -> bool
(** Same attribute names and types, in order. *)

val same_shape : t -> t -> bool
(** Same attribute types in order (names ignored). *)

val pp : t Fmt.t
