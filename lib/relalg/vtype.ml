(* Domains (attribute types) of the PASCAL/R data model.

   Figure 1 of the paper declares subrange types (yeartype = 1900..1999),
   packed character arrays (nametype = PACKED ARRAY [1..10] OF char),
   enumerations (statustype, daytype, leveltype) and — in Figure 2 —
   reference types (@employees, @papers, ...).  This module models those
   domains and membership / compatibility checks over them. *)

type t =
  | TInt of { lo : int; hi : int }
  | TStr of { width : int option }
  | TBool
  | TEnum of Value.enum_info
  | TRef of string  (* @relname *)

let int_full = TInt { lo = min_int; hi = max_int }
let int_range lo hi =
  if lo > hi then Errors.schema_error "empty subrange %d..%d" lo hi
  else TInt { lo; hi }

let string_any = TStr { width = None }
let string_width w =
  if w <= 0 then Errors.schema_error "non-positive string width %d" w
  else TStr { width = Some w }

let boolean = TBool

let enum name labels =
  if Array.length labels = 0 then
    Errors.schema_error "enumeration %s has no labels" name
  else TEnum { Value.enum_name = name; labels }

let reference relname = TRef relname

let to_string = function
  | TInt { lo; hi } ->
    if lo = min_int && hi = max_int then "integer"
    else Printf.sprintf "%d..%d" lo hi
  | TStr { width = None } -> "string"
  | TStr { width = Some w } -> Printf.sprintf "string[%d]" w
  | TBool -> "boolean"
  | TEnum info -> info.Value.enum_name
  | TRef r -> "@" ^ r

let pp ppf ty = Fmt.string ppf (to_string ty)

(* Does a runtime value belong to a domain?  Strings wider than the
   declared width are rejected (PASCAL packed arrays are fixed-size; we
   allow shorter strings, modelling blank padding). *)
let member ty v =
  match ty, v with
  | TInt { lo; hi }, Value.VInt n -> lo <= n && n <= hi
  | TStr { width = None }, Value.VStr _ -> true
  | TStr { width = Some w }, Value.VStr s -> String.length s <= w
  | TBool, Value.VBool _ -> true
  | TEnum info, Value.VEnum (info', i) ->
    String.equal info.Value.enum_name info'.Value.enum_name
    && i >= 0
    && i < Array.length info.Value.labels
  | TRef r, Value.VRef { target; _ } -> String.equal r target
  | (TInt _ | TStr _ | TBool | TEnum _ | TRef _), _ -> false

(* Two domains are comparable when values drawn from them can meet in a
   join term: subranges of integers are mutually comparable, all strings
   are, enums must be the same enumeration, references must target the
   same relation. *)
let comparable a b =
  match a, b with
  | TInt _, TInt _ -> true
  | TStr _, TStr _ -> true
  | TBool, TBool -> true
  | TEnum ia, TEnum ib -> String.equal ia.Value.enum_name ib.Value.enum_name
  | TRef ra, TRef rb -> String.equal ra rb
  | (TInt _ | TStr _ | TBool | TEnum _ | TRef _), _ -> false

let equal a b =
  match a, b with
  | TInt ra, TInt rb -> ra.lo = rb.lo && ra.hi = rb.hi
  | TStr wa, TStr wb -> wa.width = wb.width
  | TBool, TBool -> true
  | TEnum ia, TEnum ib ->
    String.equal ia.Value.enum_name ib.Value.enum_name
    && ia.Value.labels = ib.Value.labels
  | TRef ra, TRef rb -> String.equal ra rb
  | (TInt _ | TStr _ | TBool | TEnum _ | TRef _), _ -> false

(* Number of values of a finite domain, or [None] when it is unbounded
   or has more than [max_int] values.  [hi - lo] wraps exactly when the
   subrange is wider than [max_int]: its true value lies in
   [0, 2 * max_int + 1], and the part above [max_int] wraps negative. *)
let size = function
  | TInt { lo; hi } ->
    if lo > hi then Some 0
    else
      let d = hi - lo in
      if d < 0 || d = max_int then None else Some (d + 1)
  | TEnum info -> Some (Array.length info.Value.labels)
  | TBool -> Some 2
  | TStr _ | TRef _ -> None

(* Enumerate the values of a finite domain in order; used by the random
   workload generators and by the one-sorted test evaluator.  Unbounded
   domains, and subranges of more than a million values, have no
   enumeration. *)
let enumerate ty =
  match ty, size ty with
  | TInt { lo; _ }, Some n when n <= 1_000_000 ->
    Some (List.init n (fun i -> Value.VInt (lo + i)))
  | TEnum info, Some n -> Some (List.init n (fun i -> Value.VEnum (info, i)))
  | TBool, _ -> Some [ Value.VBool false; Value.VBool true ]
  | (TInt _ | TEnum _ | TStr _ | TRef _), _ -> None
