(* Hash tables keyed by value lists (relations, indexes) and by value
   arrays (the classic operators' key sets). *)

module Table = Hashtbl.Make (struct
  type t = Value.t list

  let equal = List.equal Value.equal
  let hash k = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 k
end)

type 'a table = 'a Table.t

let create n : 'a table = Table.create n

(* Multimap helper: cons onto the bucket for [k]. *)
let add_multi (tbl : 'a list table) k v =
  match Table.find_opt tbl k with
  | None -> Table.replace tbl k [ v ]
  | Some vs -> Table.replace tbl k (v :: vs)

let find_multi (tbl : 'a list table) k =
  Option.value (Table.find_opt tbl k) ~default:[]

(* Tables keyed by value ARRAYS.  A projected tuple already is a
   [Value.t array], so keying on the array directly avoids the
   per-probe [Array.to_list] allocation of the list-keyed table. *)
module Atable = Hashtbl.Make (struct
  type t = Value.t array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec go i = i >= Array.length a || (Value.equal a.(i) b.(i) && go (i + 1)) in
    go 0

  let hash k = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 k
end)

type 'a atable = 'a Atable.t

let acreate n : 'a atable = Atable.create n

