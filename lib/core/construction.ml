(* The CONSTRUCTION PHASE (paper Section 3.3): dereference the reference
   n-tuples surviving the combination phase and project on the
   components specified in the component selection. *)

open Relalg
open Calculus

let run ?name db (plan : Plan.t) refs =
  let query =
    { free = plan.Plan.free; select = plan.Plan.select; body = F_true }
  in
  let out = Relation.create ?name (Wellformed.result_schema db query) in
  (* Resolved once: each free variable's relation and column in
     [refs], and each selected component's variable and position. *)
  let free = Array.of_list plan.Plan.free in
  let ref_schema = Relation.schema refs in
  let rels =
    Array.map
      (fun (_, (r : range)) -> Database.find_relation db r.range_rel)
      free
  and ref_cols = Array.map (fun (v, _) -> Schema.index_of ref_schema v) free in
  let var_index v =
    let rec go i =
      if String.equal (fst free.(i)) v then i else go (i + 1)
    in
    go 0
  in
  let sel_var = Array.of_list (List.map (fun (v, _) -> var_index v) plan.Plan.select) in
  let sel_pos =
    Array.of_list
      (List.map
         (fun (v, a) -> Schema.index_of (Relation.schema rels.(var_index v)) a)
         plan.Plan.select)
  in
  (* Each row regains every selected variable from its reference, one
     deref each, into this scratch, then projects one output array. *)
  let elements = Array.make (Array.length free) [||] in
  let cell j = elements.(sel_var.(j)).(sel_pos.(j)) in
  let deref k = function
    | Value.VRef r -> Relation.find_key_exn rels.(k) r.Value.key
    | v -> Database.deref_value db v
  in
  (* The combination result is an intermediate, not a read of the
     database: iterate it uncounted.  The output's key is the whole
     tuple and its components come from checked relations, so the
     unchecked insert stores the same set. *)
  Relation.iter
    (fun (t : Tuple.t) ->
      for k = 0 to Array.length free - 1 do
        elements.(k) <- deref k t.(ref_cols.(k))
      done;
      Relation.insert_unchecked out (Array.init (Array.length sel_pos) cell))
    refs;
  out
