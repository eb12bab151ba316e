(* Runtime values of the PASCAL/R data model.

   A value is an integer (possibly from a subrange type), a string
   (PACKED ARRAY OF char), a boolean, an ordinal of a named enumeration
   (Figure 1 of the paper declares several: statustype, leveltype, ...),
   or a *reference* to an element of a named relation, identified by the
   target relation's name and the element's key values.  References are
   the paper's [@rel[keyval]] construct (Section 3.1) and appear as
   components of the intermediate relations of Section 3.2. *)

type enum_info = { enum_name : string; labels : string array }

type t =
  | VInt of int
  | VStr of string
  | VBool of bool
  | VEnum of enum_info * int
  | VRef of reference

and reference = { target : string; key : t list }

type comparison = Eq | Ne | Lt | Le | Gt | Ge

let all_comparisons = [ Eq; Ne; Lt; Le; Gt; Ge ]

let comparison_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

(* Negation of a comparison: NOT (x op y) = x (negate op) y.  Used when
   pushing NOT down to atoms during normalization. *)
let negate_comparison = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

(* Mirror of a comparison: x op y = y (flip op) x.  Used to orient dyadic
   join terms so that a chosen variable appears on the left. *)
let flip_comparison = function
  | Eq -> Eq
  | Ne -> Ne
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

let type_name = function
  | VInt _ -> "integer"
  | VStr _ -> "string"
  | VBool _ -> "boolean"
  | VEnum (info, _) -> info.enum_name
  | VRef r -> "@" ^ r.target

(* Total order on values of the same domain.  Booleans order false < true,
   enums by ordinal, references lexicographically by (target, key) — the
   latter matters only for deterministic iteration, not for user queries. *)
let rec compare a b =
  match a, b with
  | VInt x, VInt y -> Int.compare x y
  | VStr x, VStr y -> String.compare x y
  | VBool x, VBool y -> Bool.compare x y
  | VEnum (ia, x), VEnum (ib, y) ->
    if String.equal ia.enum_name ib.enum_name then Int.compare x y
    else
      Errors.type_error "cannot compare enum %s with enum %s" ia.enum_name
        ib.enum_name
  | VRef x, VRef y ->
    let c = String.compare x.target y.target in
    if c <> 0 then c else compare_list x.key y.key
  | (VInt _ | VStr _ | VBool _ | VEnum _ | VRef _), _ ->
    Errors.type_error "cannot compare %s with %s" (type_name a) (type_name b)

and compare_list xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
    let c = compare x y in
    if c <> 0 then c else compare_list xs' ys'

let equal a b = compare a b = 0

(* Apply a comparison operator.  This is the semantics of a join term's
   operator (paper Section 2: "Any of the comparison operators =, <>, <,
   <=, >, >= may be used"). *)
let apply op a b =
  let c = compare a b in
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(* [component_test op i c] is [fun a -> apply op a.(i) c], fixed once
   for a test that runs on every element a scan delivers.  Against an
   integer it compares unboxed ints; against an enumeration label it
   compares ordinals once the component carries the constant's own enum
   info (the one its declaration made, which every checked element
   shares).  Every other component goes through [apply], errors
   included. *)
let component_test op i c =
  let other (a : t array) = apply op a.(i) c in
  match c, op with
  | VInt k, Eq -> fun a -> (match a.(i) with VInt n -> n = k | _ -> other a)
  | VInt k, Ne -> fun a -> (match a.(i) with VInt n -> n <> k | _ -> other a)
  | VInt k, Lt -> fun a -> (match a.(i) with VInt n -> n < k | _ -> other a)
  | VInt k, Le -> fun a -> (match a.(i) with VInt n -> n <= k | _ -> other a)
  | VInt k, Gt -> fun a -> (match a.(i) with VInt n -> n > k | _ -> other a)
  | VInt k, Ge -> fun a -> (match a.(i) with VInt n -> n >= k | _ -> other a)
  | VEnum (info, k), Eq ->
    fun a ->
      (match a.(i) with VEnum (info', n) when info' == info -> n = k | _ -> other a)
  | VEnum (info, k), Ne ->
    fun a ->
      (match a.(i) with VEnum (info', n) when info' == info -> n <> k | _ -> other a)
  | VEnum _, (Lt | Le | Gt | Ge) | (VStr _ | VBool _ | VRef _), _ -> other

let rec pp ppf = function
  | VInt n -> Fmt.int ppf n
  | VStr s -> Fmt.pf ppf "'%s'" s
  | VBool b -> Fmt.bool ppf b
  | VEnum (info, i) ->
    if i >= 0 && i < Array.length info.labels then
      Fmt.string ppf info.labels.(i)
    else Fmt.pf ppf "%s#%d" info.enum_name i
  | VRef r -> Fmt.pf ppf "@%s[%a]" r.target (Fmt.list ~sep:Fmt.comma pp) r.key

let to_string v = Fmt.str "%a" pp v

(* Structural hash compatible with [equal].  The polymorphic hash would
   also hash the label arrays of enum infos; this one hashes only the
   identifying parts.  Values are hashed per probe on every
   join/dedup/insert hot path, so no case may allocate: each variant
   mixes a distinct constant in arithmetically instead of boxing a
   tagged tuple for [Hashtbl.hash]. *)
let rec hash = function
  | VInt n -> Hashtbl.hash n lxor 0x1fb218
  | VStr s -> Hashtbl.hash s lxor 0x2e5a99
  | VBool b -> if b then 0x633d5 else 0x9e379
  | VEnum (info, i) -> ((Hashtbl.hash info.enum_name * 31) + i) lxor 0x3c6ef3
  | VRef r ->
    List.fold_left
      (fun acc v -> (acc * 31) + hash v)
      (Hashtbl.hash r.target lxor 0x4d2fa1)
      r.key

(* Convenience constructors used pervasively in tests and examples. *)
let int n = VInt n
let str s = VStr s
let bool b = VBool b

let enum info label =
  let rec find i =
    if i >= Array.length info.labels then
      Errors.type_error "enum %s has no label %s" info.enum_name label
    else if String.equal info.labels.(i) label then VEnum (info, i)
    else find (i + 1)
  in
  find 0

let enum_ordinal info i =
  if i < 0 || i >= Array.length info.labels then
    Errors.type_error "enum %s has no ordinal %d" info.enum_name i
  else VEnum (info, i)
