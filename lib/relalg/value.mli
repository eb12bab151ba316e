(** Runtime values of the PASCAL/R data model.

    Values are integers, strings, booleans, enumeration ordinals, or
    {e references} to relation elements ([@rel[keyval]], paper Section
    3.1).  All six comparison operators of the paper's join terms are
    supported through {!apply}. *)

type enum_info = { enum_name : string; labels : string array }
(** A named enumeration type, e.g. Figure 1's
    [statustype = (student, technician, assistant, professor)]. *)

type t =
  | VInt of int
  | VStr of string
  | VBool of bool
  | VEnum of enum_info * int  (** ordinal into [labels] *)
  | VRef of reference

and reference = { target : string; key : t list }
(** A reference identifies an element of relation [target] by its key
    values — the high-level generalization of TIDs used throughout the
    paper's intermediate structures. *)

type comparison = Eq | Ne | Lt | Le | Gt | Ge

val all_comparisons : comparison list

val comparison_to_string : comparison -> string

val negate_comparison : comparison -> comparison
(** [negate_comparison op] satisfies
    [not (apply op a b) = apply (negate_comparison op) a b]. *)

val flip_comparison : comparison -> comparison
(** [flip_comparison op] satisfies
    [apply op a b = apply (flip_comparison op) b a]. *)

val compare : t -> t -> int
(** Total order on values of the same domain.
    @raise Errors.Type_error on cross-domain comparison. *)

val compare_list : t list -> t list -> int
(** Lexicographic; shorter lists order first. *)

val equal : t -> t -> bool

val apply : comparison -> t -> t -> bool
(** Semantics of a join term's comparison operator. *)

val component_test : comparison -> int -> t -> t array -> bool
(** [component_test op i c] is [fun a -> apply op a.(i) c], specialised
    once to [c]'s kind for a test applied to many tuples: an integer
    constant compares unboxed, an enumeration label compares ordinals
    when the component carries the constant's enum info.  Answers and
    errors are [apply]'s. *)

val hash : t -> int
(** Structural hash compatible with {!equal}. *)

val type_name : t -> string

val pp : t Fmt.t
val to_string : t -> string

val int : int -> t
val str : string -> t
val bool : bool -> t

val enum : enum_info -> string -> t
(** [enum info label] is the value of [info] named [label].
    @raise Errors.Type_error if [label] is not one of [info.labels]. *)

val enum_ordinal : enum_info -> int -> t
(** [enum_ordinal info i] is the [i]-th value of [info].
    @raise Errors.Type_error if [i] is out of range. *)
