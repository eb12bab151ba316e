(* Hash tables keyed by value lists (relations, indexes), by value
   arrays (the classic operators' key sets) and by bare values. *)

(* Keyed by one value: hashing a bare value allocates nothing, where a
   one-element key list costs a cons per probe. *)
module Vtable = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

module Table = Hashtbl.Make (struct
  type t = Value.t list

  let equal = List.equal Value.equal
  let hash k = List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 k
end)

type 'a table = 'a Table.t

let create n : 'a table = Table.create n

(* Multimap helper: cons onto the bucket for [k]. *)
let add_multi (tbl : 'a list table) k v =
  match Table.find tbl k with
  | vs -> Table.replace tbl k (v :: vs)
  | exception Not_found -> Table.replace tbl k [ v ]

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


(* The one component of an index key; [source] names the indexed
   relation in the error. *)
let single_key ~source = function
  | [ v ] -> v
  | _ ->
    Errors.type_error "comparison probe on a multi-component index over %s"
      source

(* Comparison probes of a single-component multimap: every element of
   the buckets whose key [k] satisfies [k op probe].  [Eq] finds its
   bucket by lookup rather than a walk.  Read-only, so concurrent probes
   of one table are safe. *)
let iter_matching ~source (tbl : 'a list table) op probe f =
  match op with
  | Value.Eq -> List.iter f (find_multi tbl [ probe ])
  | Value.Ne | Value.Lt | Value.Le | Value.Gt | Value.Ge ->
    Table.iter
      (fun key bucket ->
        if Value.apply op (single_key ~source key) probe then List.iter f bucket)
      tbl

(* Existence version of [iter_matching], with early exit.
   Buckets are never empty, so a matching key is a matching entry. *)
let exists_matching ~source (tbl : 'a list table) op probe =
  match op with
  | Value.Eq -> find_multi tbl [ probe ] <> []
  | Value.Ne | Value.Lt | Value.Le | Value.Gt | Value.Ge ->
    Seq.exists
      (fun key -> Value.apply op (single_key ~source key) probe)
      (Table.to_seq_keys tbl)
