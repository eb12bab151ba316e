(** Domains (attribute types): integer subranges, fixed-width strings,
    booleans, named enumerations, and reference types [@rel] (paper
    Figures 1 and 2). *)

type t =
  | TInt of { lo : int; hi : int }
  | TStr of { width : int option }
  | TBool
  | TEnum of Value.enum_info
  | TRef of string

val int_full : t
val int_range : int -> int -> t
(** @raise Errors.Schema_error if the range is empty. *)

val string_any : t
val string_width : int -> t
val boolean : t

val enum : string -> string array -> t
(** [enum name labels] declares enumeration [name] with the given labels.
    @raise Errors.Schema_error if [labels] is empty. *)

val reference : string -> t
(** [reference rel] is the type of references into relation [rel]. *)

val member : t -> Value.t -> bool
(** Domain membership of a runtime value. *)

val comparable : t -> t -> bool
(** Can values of the two domains meet in a join term? *)

val equal : t -> t -> bool

val size : t -> int option
(** Number of values of a finite domain; [None] for strings, references
    and subranges of more than [max_int] values ([int_full] among them).
    Never overflows. *)

val enumerate : t -> Value.t list option
(** All values of a finite domain in order, or [None] if it is unbounded
    or a subrange of more than a million values. *)

val to_string : t -> string
val pp : t Fmt.t
