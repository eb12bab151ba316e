(* Tuples are flat arrays of values, interpreted against a schema held by
   the enclosing relation. *)

type t = Value.t array

let of_list = Array.of_list
let to_list = Array.to_list
let arity = Array.length
let get (t : t) i = t.(i)

let get_by_name schema t name = t.(Schema.index_of schema name)

let rec compare_from a b i =
  if i >= Array.length a then 0
  else
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1)

let compare (a : t) (b : t) =
  let c = Int.compare (Array.length a) (Array.length b) in
  if c <> 0 then c else compare_from a b 0

let equal a b = compare a b = 0

let hash (t : t) =
  Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

let project positions (t : t) : t =
  Array.map (fun i -> t.(i)) positions

(* The values at [positions], as a list: built straight off the
   positions, with no projected array between — index keys. *)
let values_at positions (t : t) =
  let rec build i acc =
    if i < 0 then acc else build (i - 1) (t.(positions.(i)) :: acc)
  in
  build (Array.length positions - 1) []

let project_names schema names (t : t) : t =
  of_list (List.map (fun n -> get_by_name schema t n) names)

(* Key values of a tuple under a schema, as a list (the form stored in
   references and used for key lookup). *)
let key_of schema (t : t) =
  let rec build i acc =
    if i < 0 then acc
    else build (i - 1) (t.(Schema.key_position schema i) :: acc)
  in
  build (Schema.key_length schema - 1) []

(* Does the tuple's every component belong to the declared domain? *)
let well_typed schema (t : t) =
  let rec from i =
    i >= Array.length t
    || (Vtype.member (Schema.type_at schema i) t.(i) && from (i + 1))
  in
  arity t = Schema.arity schema && from 0

let pp ppf (t : t) =
  Fmt.pf ppf "@[<h><%a>@]" (Fmt.array ~sep:Fmt.comma Value.pp) t

let to_string t = Fmt.str "%a" pp t
